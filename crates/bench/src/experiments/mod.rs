//! One module per paper artefact (see `DESIGN.md` §5 for the index).
//!
//! Each experiment builds its dataset through a shared, cached context so
//! `repro all` computes the global ground truth once per dataset, then
//! returns [`crate::report::Table`] values plus free-form notes.

pub mod ablation_cohesion;
pub mod ablation_damping;
pub mod ablation_serverrank;
pub mod convergence;
pub mod figure7;
pub mod perf;
pub mod scaling;
pub mod scorecard;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod theorem1;
pub mod theorem2;
pub mod topk;
pub mod updating;
pub mod walk_quality;

use approxrank_gen::{DomainDataset, TopicDataset};
use approxrank_pagerank::PageRankOptions;

use crate::datasets::{au_dataset, ground_truth, politics_dataset, DatasetScale, GroundTruth};
use crate::report::Table;

/// The output of one experiment: rendered tables plus commentary lines
/// (paper-shape observations the EXPERIMENTS.md records).
#[derive(Clone, Debug, Default)]
pub struct ExperimentOutput {
    /// Tables in presentation order.
    pub tables: Vec<Table>,
    /// Free-form notes (context rows like global PageRank runtime).
    pub notes: Vec<String>,
}

impl ExperimentOutput {
    /// Renders all tables and notes as ASCII.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for t in &self.tables {
            out.push_str(&t.render());
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(n);
            out.push('\n');
        }
        out
    }

    /// Renders all tables and notes as markdown.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        for t in &self.tables {
            out.push_str(&t.render_markdown());
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str("- ");
            out.push_str(n);
            out.push('\n');
        }
        out
    }
}

/// The politics-like dataset plus its global ground truth.
pub struct PoliticsContext {
    /// The topic-labelled dataset.
    pub data: TopicDataset,
    /// Global PageRank over it.
    pub truth: GroundTruth,
}

impl PoliticsContext {
    /// Builds the dataset and computes the ground truth.
    pub fn build(scale: DatasetScale) -> Self {
        let data = politics_dataset(scale);
        let truth = ground_truth(data.graph());
        PoliticsContext { data, truth }
    }
}

/// The AU-like dataset plus its global ground truth.
pub struct AuContext {
    /// The domain-partitioned dataset.
    pub data: DomainDataset,
    /// Global PageRank over it.
    pub truth: GroundTruth,
}

impl AuContext {
    /// Builds the dataset and computes the ground truth.
    pub fn build(scale: DatasetScale) -> Self {
        let data = au_dataset(scale);
        let truth = ground_truth(data.graph());
        AuContext { data, truth }
    }
}

/// The solver settings every algorithm uses in the experiments
/// (the paper's §V-A: ε = 0.85, L1 tolerance 1e-5).
pub fn experiment_options() -> PageRankOptions {
    PageRankOptions::paper()
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Tiny-scale contexts shared by the experiment tests: large enough
    //! for the paper's orderings to emerge, small enough for CI.

    use super::*;

    pub fn politics() -> PoliticsContext {
        PoliticsContext::build(DatasetScale(0.08))
    }

    pub fn au() -> AuContext {
        AuContext::build(DatasetScale(0.08))
    }
}
