//! Gshare branch predictor for the core model.
//!
//! A classic gshare: the global history register is XORed with the branch
//! PC to index a table of 2-bit saturating counters. This is enough to
//! capture the effect the paper leans on in Fig. 21 — loop-closing branches
//! in streaming consumers predict nearly perfectly, while data-dependent
//! BDFS traversal branches mispredict heavily.

/// A gshare predictor with 2-bit saturating counters.
#[derive(Clone, Debug)]
pub struct Gshare {
    table: Vec<u8>,
    history: u64,
    mask: u64,
}

impl Gshare {
    /// Creates a predictor with `2^bits` counters, initialized weakly taken.
    pub fn new(bits: u32) -> Self {
        let size = 1usize << bits;
        Gshare {
            table: vec![2u8; size],
            history: 0,
            mask: (size as u64) - 1,
        }
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        ((pc ^ self.history) & self.mask) as usize
    }

    /// Predicts the direction of the branch at `pc`.
    #[inline]
    pub fn predict(&self, pc: u64) -> bool {
        self.table[self.index(pc)] >= 2
    }

    /// Updates the predictor with the actual outcome and returns whether
    /// the prediction was correct.
    #[inline]
    pub fn update(&mut self, pc: u64, taken: bool) -> bool {
        let idx = self.index(pc);
        let predicted = self.table[idx] >= 2;
        let ctr = &mut self.table[idx];
        if taken {
            *ctr = (*ctr + 1).min(3);
        } else {
            *ctr = ctr.saturating_sub(1);
        }
        self.history = (self.history << 1) | taken as u64;
        predicted == taken
    }
}

levi_isa::codec_struct! {
    Gshare { history, mask, table: levi_isa::codec::Bytes }
    ensure table.len() as u64 == mask.wrapping_add(1) => "gshare table size";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_always_taken() {
        let mut p = Gshare::new(8);
        let pc = 0x40;
        let mut correct = 0;
        for _ in 0..100 {
            if p.update(pc, true) {
                correct += 1;
            }
        }
        assert!(
            correct >= 98,
            "always-taken should be near-perfect, got {correct}"
        );
    }

    #[test]
    fn learns_loop_pattern() {
        // Loop branch: taken 7 times, not taken once, repeated. With
        // history the predictor should learn the exit too.
        let mut p = Gshare::new(12);
        let pc = 0x88;
        let mut correct = 0;
        let mut total = 0;
        for _rep in 0..64 {
            for i in 0..8 {
                let taken = i != 7;
                if p.update(pc, taken) {
                    correct += 1;
                }
                total += 1;
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.9, "loop pattern accuracy {acc}");
    }

    #[test]
    fn random_data_mispredicts_often() {
        // A deterministic pseudo-random sequence; gshare cannot learn it.
        let mut p = Gshare::new(12);
        let pc = 0x100;
        let mut x = 0x12345678u64;
        let mut correct = 0;
        let total = 2000;
        for _ in 0..total {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let taken = (x >> 33) & 1 == 1;
            if p.update(pc, taken) {
                correct += 1;
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc < 0.7, "random data should hover near chance, got {acc}");
    }

    #[test]
    fn predict_matches_update_verdict() {
        let mut p = Gshare::new(6);
        for i in 0..200u64 {
            let pc = 0x10 + (i % 5) * 4;
            let taken = i % 3 == 0;
            let predicted = p.predict(pc);
            let was_correct = p.update(pc, taken);
            assert_eq!(was_correct, predicted == taken);
        }
    }
}
