//! Branch prediction: gshare direction predictor + branch target buffer.
//!
//! The paper's Figure 12 reports misprediction ratios and concludes that
//! data-analysis branch behaviour is regular enough that "a simpler
//! branch predictor may be preferred". We model a gshare predictor with
//! configurable history length (`history_bits == 0` degenerates to a
//! static not-taken predictor, the simplest possible design, the low
//! end of Exhibit SW's predictor axis).

use crate::config::CpuConfig;

/// Tournament predictor (bimodal + gshare with a per-PC chooser) + BTB.
///
/// The bimodal side captures strongly-biased branches regardless of
/// history interleaving (the dominant population in datacenter code);
/// the gshare side captures history-correlated patterns; the chooser
/// learns which component to trust per branch. `history_bits == 0`
/// degenerates to static not-taken.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    /// Per-PC 2-bit counters.
    bimodal: Vec<u8>,
    /// History-indexed 2-bit counters.
    gshare: Vec<u8>,
    /// Per-PC 2-bit chooser: >=2 trusts gshare.
    chooser: Vec<u8>,
    history: u64,
    history_mask: u64,
    table_mask: u64,
    /// BTB: tag + target per entry, direct-mapped.
    btb_tags: Vec<u64>,
    btb_targets: Vec<u64>,
    /// Predicted branches.
    pub branches: u64,
    /// Direction mispredictions.
    pub mispredicts: u64,
    /// Branches whose target was present in the BTB.
    pub btb_hits: u64,
}

impl BranchPredictor {
    /// Build from a machine config. Tables hold `2^max(history_bits+4,16)`
    /// entries so per-PC state does not alias destructively across large
    /// static branch working sets.
    pub fn new(cfg: &CpuConfig) -> Self {
        let hist_bits = cfg.predictor_history_bits.min(20);
        let table_bits = (hist_bits + 4).clamp(16, 22);
        let table = if hist_bits == 0 {
            1
        } else {
            1usize << table_bits
        };
        let btb = cfg.btb_entries.next_power_of_two().max(2) as usize;
        BranchPredictor {
            bimodal: vec![1; table],
            gshare: vec![1; table],
            chooser: vec![1; table], // start trusting bimodal
            history: 0,
            history_mask: if hist_bits == 0 {
                0
            } else {
                (1u64 << hist_bits) - 1
            },
            table_mask: (table as u64) - 1,
            btb_tags: vec![u64::MAX; btb],
            btb_targets: vec![0; btb],
            branches: 0,
            mispredicts: 0,
            btb_hits: 0,
        }
    }

    #[inline]
    fn pc_index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.table_mask) as usize
    }

    #[inline]
    fn gshare_index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ (self.history << 4)) & self.table_mask) as usize
    }

    /// Predict and train on one branch; returns `true` if the prediction
    /// (direction *and* target when taken) was correct.
    pub fn predict_and_train(&mut self, pc: u64, taken: bool, target: u64) -> bool {
        self.branches += 1;
        let static_nt = self.history_mask == 0;
        let pi = self.pc_index(pc);
        let gi = self.gshare_index(pc);
        let bim_taken = self.bimodal[pi] >= 2;
        let gsh_taken = self.gshare[gi] >= 2;
        let predicted_taken = if static_nt {
            false
        } else if self.chooser[pi] >= 2 {
            gsh_taken
        } else {
            bim_taken
        };

        // Only *direction* mispredicts count (and trigger redirects):
        // direct-branch targets are recomputed at decode on a BTB miss at
        // negligible cost, so hardware BR_MISP counters don't see them.
        // The BTB is still maintained for the `btb_hit_ratio` statistic.
        let btb_idx = ((pc >> 2) as usize) & (self.btb_tags.len() - 1);
        if self.btb_tags[btb_idx] == pc && self.btb_targets[btb_idx] == target {
            self.btb_hits += 1;
        }

        let correct = predicted_taken == taken;
        if !correct {
            self.mispredicts += 1;
        }

        // Train direction tables and the chooser.
        if !static_nt {
            let up = |c: &mut u8| *c = (*c + 1).min(3);
            let down = |c: &mut u8| *c = c.saturating_sub(1);
            if taken {
                up(&mut self.bimodal[pi]);
                up(&mut self.gshare[gi]);
            } else {
                down(&mut self.bimodal[pi]);
                down(&mut self.gshare[gi]);
            }
            if bim_taken != gsh_taken {
                if gsh_taken == taken {
                    up(&mut self.chooser[pi]);
                } else {
                    down(&mut self.chooser[pi]);
                }
            }
            self.history = ((self.history << 1) | u64::from(taken)) & self.history_mask;
        }
        if taken {
            self.btb_tags[btb_idx] = pc;
            self.btb_targets[btb_idx] = target;
        }
        correct
    }

    /// Misprediction ratio so far.
    pub fn misprediction_ratio(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }

    /// BTB target hit ratio so far.
    pub fn btb_hit_ratio(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.btb_hits as f64 / self.branches as f64
        }
    }

    /// Reset statistics, keeping learned state (post-warm-up).
    pub fn reset_stats(&mut self) {
        self.branches = 0;
        self.mispredicts = 0;
        self.btb_hits = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpuConfig;

    fn predictor() -> BranchPredictor {
        BranchPredictor::new(&CpuConfig::westmere_e5645())
    }

    #[test]
    fn learns_always_taken_branch() {
        let mut p = predictor();
        for _ in 0..1000 {
            p.predict_and_train(0x400, true, 0x800);
        }
        assert!(
            p.misprediction_ratio() < 0.02,
            "ratio={}",
            p.misprediction_ratio()
        );
    }

    #[test]
    fn learns_never_taken_branch() {
        let mut p = predictor();
        for _ in 0..1000 {
            p.predict_and_train(0x400, false, 0);
        }
        assert!(p.misprediction_ratio() < 0.01);
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        let mut p = predictor();
        let mut toggle = false;
        for _ in 0..4000 {
            toggle = !toggle;
            p.predict_and_train(0x400, toggle, 0x800);
        }
        // gshare captures strict alternation after warm-up.
        p.reset_stats();
        for _ in 0..4000 {
            toggle = !toggle;
            p.predict_and_train(0x400, toggle, 0x800);
        }
        assert!(
            p.misprediction_ratio() < 0.05,
            "ratio={}",
            p.misprediction_ratio()
        );
    }

    #[test]
    fn random_branches_mispredict_heavily() {
        let mut p = predictor();
        let mut x = 777u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            p.predict_and_train(0x400, (x >> 33) & 1 == 1, 0x800);
        }
        assert!(
            p.misprediction_ratio() > 0.35,
            "ratio={}",
            p.misprediction_ratio()
        );
    }

    #[test]
    fn btb_tracks_targets() {
        let mut p = predictor();
        for _ in 0..100 {
            p.predict_and_train(0x400, true, 0x800);
        }
        assert!(p.btb_hit_ratio() > 0.9);
        p.reset_stats();
        // Same direction, new target: direction still predicted, BTB cold.
        p.predict_and_train(0x400, true, 0xC00);
        assert_eq!(p.mispredicts, 0);
        assert_eq!(p.btb_hits, 0);
    }

    #[test]
    fn static_not_taken_predictor() {
        let mut p = BranchPredictor::new(
            &CpuConfig::westmere_e5645()
                .try_with_predictor_bits(0)
                .expect("a history the tables honour"),
        );
        for _ in 0..100 {
            p.predict_and_train(0x10, false, 0);
        }
        assert_eq!(p.mispredicts, 0);
        for _ in 0..100 {
            p.predict_and_train(0x20, true, 0x40);
        }
        assert_eq!(
            p.mispredicts, 100,
            "static NT mispredicts every taken branch"
        );
    }

    #[test]
    fn biased_branches_mostly_predicted() {
        let mut p = predictor();
        let mut x = 9u64;
        for i in 0..50_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            // 95 % taken bias across 64 static branches.
            let pc = 0x1000 + (i % 64) * 4;
            let taken = (x >> 40) % 100 < 95;
            p.predict_and_train(pc, taken, pc + 0x100);
        }
        let r = p.misprediction_ratio();
        assert!(r < 0.15, "ratio={r}");
    }
}
