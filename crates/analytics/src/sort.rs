//! Sort: rank records by key (Hadoop example #1, Table I row 1).
//!
//! The paper highlights Sort as the OS-intensive outlier among the data
//! analysis workloads: input size equals output size, so every stage
//! writes its full volume to disk or network, and the computation itself
//! is only comparison.

use dc_mapreduce::engine::{run_job, JobConfig, JobError, JobStats};

/// Pure kernel: sort records by their key.
pub fn sort_records(mut records: Vec<(String, String)>) -> Vec<(String, String)> {
    records.sort_by(|a, b| a.0.cmp(&b.0));
    records
}

/// MapReduce sort: identity map keyed on the record, totally ordered
/// output when `reduce_tasks == 1`, partition-ordered otherwise (as in
/// Hadoop TeraSort without the custom partitioner).
///
/// # Errors
/// Fails when a task exhausts its attempts (see [`JobError`]).
pub fn run(lines: Vec<String>, cfg: &JobConfig) -> Result<(Vec<String>, JobStats), JobError> {
    let (mut out, stats) = run_job(
        lines,
        cfg,
        |line: String, emit: &mut dyn FnMut(String, u32)| {
            emit(line, 1);
        },
        None,
        |k: &String, vs: &[u32]| vs.iter().map(|_| k.clone()).collect(),
    )?;
    // Hadoop writes one ordered file per reducer; concatenating partition
    // outputs sorted keeps verification simple without changing the I/O.
    out.sort();
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_sorts() {
        let recs = vec![
            ("b".to_string(), "2".to_string()),
            ("a".to_string(), "1".to_string()),
            ("c".to_string(), "3".to_string()),
        ];
        let sorted = sort_records(recs);
        assert_eq!(sorted[0].0, "a");
        assert_eq!(sorted[2].0, "c");
    }

    #[test]
    fn mapreduce_sort_orders_lines() {
        let lines: Vec<String> = vec!["pear", "apple", "mango", "apple", "banana"]
            .into_iter()
            .map(String::from)
            .collect();
        let (out, stats) = run(lines, &JobConfig::default()).expect("fault-free job");
        assert_eq!(out, vec!["apple", "apple", "banana", "mango", "pear"]);
        assert_eq!(stats.map_input_records, 5);
        assert_eq!(stats.reduce_output_records, 5);
    }

    #[test]
    fn sort_io_volume_matches_input() {
        // The paper's key observation: Sort's output volume equals its
        // input volume (shuffle carries everything).
        let lines: Vec<String> = (0..500)
            .map(|i| format!("line{:05}", 997 * i % 500))
            .collect();
        let input_bytes: u64 = lines.iter().map(|l| l.len() as u64 + 4).sum();
        let (_, stats) = run(lines, &JobConfig::default()).expect("fault-free job");
        assert!(
            stats.shuffle_bytes >= input_bytes,
            "shuffle carries the whole input"
        );
    }
}
