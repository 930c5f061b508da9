//! Rotary position embeddings (Su et al. 2021), with the cos/sin tables
//! precomputed once per model so the hot decode path does no trig.

/// Precomputed rotary tables for every position up to `max_seq`.
#[derive(Debug, Clone)]
pub struct Rope {
    /// `[max_seq, head_dim/2]` each, row-major.
    cos: Vec<f32>,
    sin: Vec<f32>,
    half: usize,
}

impl Rope {
    pub fn new(max_seq: usize, head_dim: usize, theta: f32) -> Self {
        assert!(head_dim.is_multiple_of(2), "RoPE needs an even head dim");
        let half = head_dim / 2;
        let mut cos = Vec::with_capacity(max_seq * half);
        let mut sin = Vec::with_capacity(max_seq * half);
        for pos in 0..max_seq {
            for i in 0..half {
                let freq = theta.powf(-2.0 * i as f32 / head_dim as f32);
                let angle = pos as f32 * freq;
                cos.push(angle.cos());
                sin.push(angle.sin());
            }
        }
        Self { cos, sin, half }
    }

    /// Half the head dimension (pairs rotated per position).
    pub fn half(&self) -> usize {
        self.half
    }

    /// Copies of the cos/sin tables for positions `start..start+t`
    /// (`t × half` row-major each) — the format `aasd-autograd`'s `rope` op
    /// consumes when the training path replays this rotation on the tape.
    /// Behind a K/V prefix the text rows start at the prefix length,
    /// matching a decode over a cache pre-seeded with those rows.
    pub fn tables_range(&self, start: usize, t: usize) -> (Vec<f32>, Vec<f32>) {
        let (a, b) = (start * self.half, (start + t) * self.half);
        assert!(b <= self.cos.len(), "position range exceeds max_seq");
        (self.cos[a..b].to_vec(), self.sin[a..b].to_vec())
    }

    /// Rotate one head vector (`len == head_dim`, adjacent pairs) in place
    /// for absolute position `pos`.
    pub fn apply(&self, head: &mut [f32], pos: usize) {
        debug_assert_eq!(head.len(), 2 * self.half);
        let c = &self.cos[pos * self.half..(pos + 1) * self.half];
        let s = &self.sin[pos * self.half..(pos + 1) * self.half];
        for i in 0..self.half {
            let (x, y) = (head[2 * i], head[2 * i + 1]);
            head[2 * i] = x * c[i] - y * s[i];
            head[2 * i + 1] = x * s[i] + y * c[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aasd_tensor::{dot, Rng};

    #[test]
    fn position_zero_is_identity() {
        let rope = Rope::new(8, 16, 10_000.0);
        let mut rng = Rng::new(1);
        let orig: Vec<f32> = (0..16).map(|_| rng.normal()).collect();
        let mut v = orig.clone();
        rope.apply(&mut v, 0);
        for (a, b) in v.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn rotation_preserves_norm() {
        let rope = Rope::new(64, 32, 10_000.0);
        let mut rng = Rng::new(2);
        for pos in [1, 7, 63] {
            let orig: Vec<f32> = (0..32).map(|_| rng.normal()).collect();
            let mut v = orig.clone();
            rope.apply(&mut v, pos);
            let n0 = dot(&orig, &orig);
            let n1 = dot(&v, &v);
            assert!((n0 - n1).abs() / n0 < 1e-5);
        }
    }

    /// The defining RoPE property: ⟨R_p q, R_{p+d} k⟩ depends only on the
    /// offset d, not on the absolute position p.
    #[test]
    fn inner_product_is_relative() {
        let rope = Rope::new(128, 8, 10_000.0);
        let mut rng = Rng::new(3);
        let q: Vec<f32> = (0..8).map(|_| rng.normal()).collect();
        let k: Vec<f32> = (0..8).map(|_| rng.normal()).collect();
        let score = |p_q: usize, p_k: usize| {
            let (mut qq, mut kk) = (q.clone(), k.clone());
            rope.apply(&mut qq, p_q);
            rope.apply(&mut kk, p_k);
            dot(&qq, &kk)
        };
        let d = 5;
        let a = score(10, 10 + d);
        let b = score(90, 90 + d);
        assert!((a - b).abs() < 1e-4, "{a} vs {b}");
    }
}
