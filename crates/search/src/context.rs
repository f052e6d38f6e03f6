//! The evaluation context bundling models, catalog and engine.

use aved_avail::AvailabilityEngine;
use aved_model::{Infrastructure, Service, Tier};
use aved_perf::Catalog;

use crate::SearchError;

/// Everything a design evaluation needs: the infrastructure model, the
/// service model, the performance catalog, and the availability engine.
///
/// The engine is held as a trait object, mirroring the paper's pluggable
/// availability-evaluation back ends.
pub struct EvalContext<'a> {
    infrastructure: &'a Infrastructure,
    service: &'a Service,
    catalog: &'a Catalog,
    engine: &'a dyn AvailabilityEngine,
}

impl<'a> EvalContext<'a> {
    /// Creates a context.
    #[must_use]
    pub fn new(
        infrastructure: &'a Infrastructure,
        service: &'a Service,
        catalog: &'a Catalog,
        engine: &'a dyn AvailabilityEngine,
    ) -> EvalContext<'a> {
        EvalContext {
            infrastructure,
            service,
            catalog,
            engine,
        }
    }

    /// The service's finite job size; a requirement mismatch for an
    /// enterprise service, which declares none.
    pub(crate) fn job_size(&self) -> Result<f64, SearchError> {
        self.service
            .job_size()
            .ok_or_else(|| SearchError::RequirementMismatch {
                detail: "service declares no jobsize".into(),
            })
    }

    /// The infrastructure model.
    #[must_use]
    pub fn infrastructure(&self) -> &'a Infrastructure {
        self.infrastructure
    }

    /// The service model.
    #[must_use]
    pub fn service(&self) -> &'a Service {
        self.service
    }

    /// The performance catalog.
    #[must_use]
    pub fn catalog(&self) -> &'a Catalog {
        self.catalog
    }

    /// The availability engine.
    #[must_use]
    pub fn engine(&self) -> &'a dyn AvailabilityEngine {
        self.engine
    }

    /// Looks up a tier by name.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::UnknownTier`] when absent.
    pub fn tier(&self, name: &str) -> Result<&'a Tier, SearchError> {
        self.service
            .tier(name)
            .ok_or_else(|| SearchError::UnknownTier { tier: name.into() })
    }
}

impl std::fmt::Debug for EvalContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalContext")
            .field("service", &self.service.name())
            .field("n_tiers", &self.service.tiers().len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aved_avail::CtmcEngine;

    #[test]
    fn construction_and_lookup() {
        let infra = Infrastructure::new();
        let svc = Service::new("svc").with_tier(Tier::new("web"));
        let catalog = Catalog::new();
        let engine = CtmcEngine::default();
        let ctx = EvalContext::new(&infra, &svc, &catalog, &engine);
        assert!(ctx.tier("web").is_ok());
        assert!(matches!(
            ctx.tier("ghost"),
            Err(SearchError::UnknownTier { .. })
        ));
        assert!(format!("{ctx:?}").contains("svc"));
    }
}
