//! Learning-rate schedules.

/// Learning rate as a function of the 0-based step index.
#[derive(Debug, Clone, PartialEq)]
pub enum Schedule {
    /// The same rate every step.
    Constant(f32),
    /// Half-cosine decay from `base` at step 0 to `floor` at step
    /// `total` (and `floor` for every step after).
    Cosine { base: f32, floor: f32, total: usize },
}

impl Schedule {
    pub fn lr(&self, step: usize) -> f32 {
        match *self {
            Schedule::Constant(lr) => lr,
            Schedule::Cosine { base, floor, total } => {
                if total == 0 || step >= total {
                    return floor;
                }
                let progress = step as f32 / total as f32;
                floor + 0.5 * (base - floor) * (1.0 + (std::f32::consts::PI * progress).cos())
            }
        }
    }

    /// This schedule for a model of width `dim`: every rate scaled by
    /// `(64 / dim).min(1.0)`. The zoo schedule is tuned for dim-64 models,
    /// and Adam at its 2e-2 oscillates on the wider Sim LMs; a model at
    /// most 64 wide keeps the rates as they are.
    pub fn width_scaled(&self, dim: usize) -> Schedule {
        let scale = (64.0 / dim as f32).min(1.0);
        match *self {
            Schedule::Constant(lr) => Schedule::Constant(lr * scale),
            Schedule::Cosine { base, floor, total } => Schedule::Cosine {
                base: base * scale,
                floor: floor * scale,
                total,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let s = Schedule::Constant(0.3);
        assert_eq!(s.lr(0), 0.3);
        assert_eq!(s.lr(10_000), 0.3);
    }

    #[test]
    fn cosine_hits_endpoints_and_decreases() {
        let s = Schedule::Cosine {
            base: 1.0,
            floor: 0.1,
            total: 100,
        };
        assert!((s.lr(0) - 1.0).abs() < 1e-6);
        assert!((s.lr(50) - 0.55).abs() < 1e-6);
        assert_eq!(s.lr(100), 0.1);
        assert_eq!(s.lr(500), 0.1);
        let mut prev = f32::INFINITY;
        for step in 0..=100 {
            let lr = s.lr(step);
            assert!(lr <= prev + 1e-7, "not monotone at step {step}");
            prev = lr;
        }
    }

    #[test]
    fn width_scaling_divides_by_dim_over_64_and_never_raises() {
        let cosine = Schedule::Cosine {
            base: 2e-2,
            floor: 2e-3,
            total: 10,
        };
        assert_eq!(
            cosine.width_scaled(128),
            Schedule::Cosine {
                base: 2e-2 * 0.5,
                floor: 2e-3 * 0.5,
                total: 10,
            }
        );
        assert_eq!(cosine.width_scaled(32), cosine);
        assert_eq!(
            Schedule::Constant(0.3).width_scaled(256),
            Schedule::Constant(0.3 * 0.25)
        );
    }

    #[test]
    fn degenerate_cosine_returns_floor() {
        let s = Schedule::Cosine {
            base: 1.0,
            floor: 0.25,
            total: 0,
        };
        assert_eq!(s.lr(0), 0.25);
    }
}
