//! The benchmark registry: every entry on the paper's figure x-axes.

use std::fmt;

/// Suite taxonomy used throughout the paper's analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// The paper's eleven data-analysis workloads (DCBench analysis side).
    DataAnalysis,
    /// CloudSuite scale-out benchmarks.
    CloudSuite,
    /// SPEC CPU2006 aggregates.
    SpecCpu,
    /// SPECweb2005.
    SpecWeb,
    /// HPCC 1.4 kernels.
    Hpcc,
}

/// One bar on the figures' x-axes, in the paper's left-to-right order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // names mirror the figure labels 1:1
pub enum BenchmarkId {
    NaiveBayes,
    Svm,
    Grep,
    WordCount,
    KMeans,
    FuzzyKMeans,
    PageRank,
    Sort,
    HiveBench,
    Ibcf,
    Hmm,
    SoftwareTesting,
    MediaStreaming,
    DataServing,
    WebSearch,
    WebServing,
    SpecFp,
    SpecInt,
    SpecWeb,
    HpccComm,
    HpccDgemm,
    HpccFft,
    HpccHpl,
    HpccPtrans,
    HpccRandomAccess,
    HpccStream,
}

impl BenchmarkId {
    /// All 26 named entries in figure order (Naive Bayes … HPCC-STREAM);
    /// the figures additionally show a computed data-analysis `avg` bar.
    pub fn all() -> &'static [BenchmarkId] {
        use BenchmarkId::*;
        &[
            NaiveBayes,
            Svm,
            Grep,
            WordCount,
            KMeans,
            FuzzyKMeans,
            PageRank,
            Sort,
            HiveBench,
            Ibcf,
            Hmm,
            SoftwareTesting,
            MediaStreaming,
            DataServing,
            WebSearch,
            WebServing,
            SpecFp,
            SpecInt,
            SpecWeb,
            HpccComm,
            HpccDgemm,
            HpccFft,
            HpccHpl,
            HpccPtrans,
            HpccRandomAccess,
            HpccStream,
        ]
    }

    /// The eleven data-analysis entries, in figure order.
    pub fn data_analysis() -> &'static [BenchmarkId] {
        use BenchmarkId::*;
        &[
            NaiveBayes,
            Svm,
            Grep,
            WordCount,
            KMeans,
            FuzzyKMeans,
            PageRank,
            Sort,
            HiveBench,
            Ibcf,
            Hmm,
        ]
    }

    /// The service workloads: four CloudSuite services + SPECweb (the
    /// grouping the paper reasons about).
    pub fn services() -> &'static [BenchmarkId] {
        use BenchmarkId::*;
        &[MediaStreaming, DataServing, WebSearch, WebServing, SpecWeb]
    }

    /// The seven HPCC kernels.
    pub fn hpcc() -> &'static [BenchmarkId] {
        use BenchmarkId::*;
        &[
            HpccComm,
            HpccDgemm,
            HpccFft,
            HpccHpl,
            HpccPtrans,
            HpccRandomAccess,
            HpccStream,
        ]
    }

    /// Figure label.
    pub fn name(&self) -> &'static str {
        use BenchmarkId::*;
        match self {
            NaiveBayes => "Naive Bayes",
            Svm => "SVM",
            Grep => "Grep",
            WordCount => "WordCount",
            KMeans => "K-means",
            FuzzyKMeans => "Fuzzy K-means",
            PageRank => "PageRank",
            Sort => "Sort",
            HiveBench => "Hive-bench",
            Ibcf => "IBCF",
            Hmm => "HMM",
            SoftwareTesting => "Software Testing",
            MediaStreaming => "Media Streaming",
            DataServing => "Data Serving",
            WebSearch => "Web Search",
            WebServing => "Web Serving",
            SpecFp => "SPECFP",
            SpecInt => "SPECINT",
            SpecWeb => "SPECWeb",
            HpccComm => "HPCC-COMM",
            HpccDgemm => "HPCC-DGEMM",
            HpccFft => "HPCC-FFT",
            HpccHpl => "HPCC-HPL",
            HpccPtrans => "HPCC-PTRANS",
            HpccRandomAccess => "HPCC-RandomAccess",
            HpccStream => "HPCC-STREAM",
        }
    }

    /// Inverse of [`BenchmarkId::name`]: resolve a figure label back to
    /// its entry. The persistent store keys records by this stable name
    /// (it cannot depend on the enum), so loading a store record means
    /// mapping the name back; unknown names (e.g. from a foreign or
    /// future store file) are `None`, not a panic.
    pub fn from_name(name: &str) -> Option<BenchmarkId> {
        BenchmarkId::all()
            .iter()
            .copied()
            .find(|id| id.name() == name)
    }

    /// The suite this entry belongs to.
    pub fn suite(&self) -> Suite {
        use BenchmarkId::*;
        match self {
            NaiveBayes | Svm | Grep | WordCount | KMeans | FuzzyKMeans | PageRank | Sort
            | HiveBench | Ibcf | Hmm => Suite::DataAnalysis,
            SoftwareTesting | MediaStreaming | DataServing | WebSearch | WebServing => {
                Suite::CloudSuite
            }
            SpecFp | SpecInt => Suite::SpecCpu,
            SpecWeb => Suite::SpecWeb,
            HpccComm | HpccDgemm | HpccFft | HpccHpl | HpccPtrans | HpccRandomAccess
            | HpccStream => Suite::Hpcc,
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_six_named_entries_in_figure_order() {
        // 26 named bars; the figures' 27th bar is the computed DA `avg`.
        assert_eq!(BenchmarkId::all().len(), 26);
        assert_eq!(BenchmarkId::all()[0], BenchmarkId::NaiveBayes);
        assert_eq!(
            *BenchmarkId::all().last().expect("nonempty"),
            BenchmarkId::HpccStream
        );
    }

    #[test]
    fn data_analysis_group_has_eleven() {
        assert_eq!(BenchmarkId::data_analysis().len(), 11);
        for id in BenchmarkId::data_analysis() {
            assert_eq!(id.suite(), Suite::DataAnalysis);
        }
    }

    #[test]
    fn services_grouping_matches_paper() {
        let services = BenchmarkId::services();
        assert_eq!(services.len(), 5);
        assert!(services.contains(&BenchmarkId::SpecWeb));
        assert!(!services.contains(&BenchmarkId::SoftwareTesting));
    }

    #[test]
    fn hpcc_has_seven_kernels() {
        assert_eq!(BenchmarkId::hpcc().len(), 7);
        for id in BenchmarkId::hpcc() {
            assert_eq!(id.suite(), Suite::Hpcc);
        }
    }

    #[test]
    fn names_match_figure_labels() {
        assert_eq!(BenchmarkId::NaiveBayes.name(), "Naive Bayes");
        assert_eq!(BenchmarkId::HpccRandomAccess.name(), "HPCC-RandomAccess");
        assert_eq!(BenchmarkId::FuzzyKMeans.to_string(), "Fuzzy K-means");
    }
}
