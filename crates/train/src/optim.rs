//! The optimizer every trainer runs: Adam, updating one parameter tensor
//! ("slot") at a time in the canonical visitor order, so its per-slot
//! moments are keyed by slot index and grown lazily on first touch.

use aasd_autograd::{Gradients, VarId};

/// Adam (Kingma & Ba 2015) with bias correction.
///
/// Per-slot first/second moment buffers are allocated on first update of
/// that slot, so the optimizer needs no up-front knowledge of the model's
/// shape — it adapts to whatever the parameter visitor yields.
#[derive(Debug, Clone)]
pub struct Adam {
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    lr: f32,
    /// Completed steps (for bias correction); incremented by `begin_step`.
    t: u32,
    /// Per-slot `(m, v)` moment buffers.
    state: Vec<Option<(Vec<f32>, Vec<f32>)>>,
}

impl Adam {
    pub fn new() -> Self {
        Self {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            lr: 0.0,
            t: 0,
            state: Vec::new(),
        }
    }
}

impl Default for Adam {
    fn default() -> Self {
        Self::new()
    }
}

impl Adam {
    /// Apply one step's gradients to the parameter slices `visit` yields:
    /// the `i`-th slice is tape leaf `leaves[i]` and Adam slot
    /// `first_slot + i`; a leaf the loss never reached is left untouched.
    /// `first_slot == 0` opens the step at learning rate `lr`. A trainer
    /// with a second parameter group (the draft and its projector, trained
    /// jointly) calls again with `first_slot` past the first group's slots
    /// to continue the same step.
    pub fn step(
        &mut self,
        lr: f32,
        grads: &Gradients,
        leaves: &[VarId],
        first_slot: usize,
        visit: impl FnOnce(&mut dyn FnMut(&str, &mut [f32])),
    ) {
        if first_slot == 0 {
            self.begin_step(lr);
        }
        let mut i = 0usize;
        visit(&mut |_, param| {
            if let Some(g) = grads.get(leaves[i]) {
                self.update(first_slot + i, param, &g.data);
            }
            i += 1;
        });
        debug_assert_eq!(i, leaves.len(), "one leaf per visited slice");
    }

    fn begin_step(&mut self, lr: f32) {
        self.lr = lr;
        self.t += 1;
    }

    fn update(&mut self, slot: usize, param: &mut [f32], grad: &[f32]) {
        debug_assert_eq!(param.len(), grad.len());
        if slot >= self.state.len() {
            self.state.resize(slot + 1, None);
        }
        let (m, v) = self.state[slot]
            .get_or_insert_with(|| (vec![0.0; param.len()], vec![0.0; param.len()]));
        debug_assert_eq!(m.len(), param.len(), "slot {slot} changed size");
        let (beta1, beta2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
        let bc1 = 1.0 - beta1.powi(self.t as i32);
        let bc2 = 1.0 - beta2.powi(self.t as i32);
        // One `zip` over the four slices, the hyper-parameters in locals:
        // with no index to bounds-check and no field to re-read through
        // `self`, the loop vectorizes. Every operation is still one
        // correctly rounded multiply, add, divide or `sqrt` in the order
        // written (Rust never contracts into a fused multiply-add), so
        // each element gets the bits it got one at a time.
        let moments = m.iter_mut().zip(v.iter_mut());
        for ((p, &g), (m, v)) in param.iter_mut().zip(grad).zip(moments) {
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *p -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aasd_autograd::Tape;
    use aasd_tensor::Tensor;

    /// Gradients of `f` over fresh `[1, n]` leaves holding `params`.
    fn grads_of(
        params: &[&[f32]],
        f: impl Fn(&mut Tape, &[VarId]) -> VarId,
    ) -> (Gradients, Vec<VarId>) {
        let mut tape = Tape::new();
        let ids: Vec<VarId> = params
            .iter()
            .map(|p| tape.leaf(Tensor::from_vec(p.to_vec(), 1, p.len())))
            .collect();
        let root = f(&mut tape, &ids);
        (tape.backward(root), ids)
    }

    #[test]
    fn adam_converges_on_badly_scaled_quadratic() {
        // f(x) = 100·x₀² + 0.01·x₁² — SGD at a safe lr crawls on x₁; Adam's
        // normalisation moves both coordinates at the same speed.
        let mut x = vec![1.0f32, 1.0];
        let mut opt = Adam::new();
        for _ in 0..400 {
            let (grads, ids) = grads_of(&[&x, &[100.0, 0.01]], |tape, ids| {
                let xx = tape.mul(ids[0], ids[0]);
                let fx = tape.mul(xx, ids[1]);
                tape.sum(fx)
            });
            opt.step(0.02, &grads, &ids[..1], 0, |f| f("x", &mut x));
        }
        assert!(x[0].abs() < 1e-2 && x[1].abs() < 1e-2, "{x:?}");
    }

    /// `Adam::update` as an indexed loop, one element at a time: the
    /// reference the vectorized `zip` is held to.
    fn indexed_update(opt: &Adam, m: &mut [f32], v: &mut [f32], param: &mut [f32], grad: &[f32]) {
        let bc1 = 1.0 - opt.beta1.powi(opt.t as i32);
        let bc2 = 1.0 - opt.beta2.powi(opt.t as i32);
        for i in 0..param.len() {
            m[i] = opt.beta1 * m[i] + (1.0 - opt.beta1) * grad[i];
            v[i] = opt.beta2 * v[i] + (1.0 - opt.beta2) * grad[i] * grad[i];
            let m_hat = m[i] / bc1;
            let v_hat = v[i] / bc2;
            param[i] -= opt.lr * m_hat / (v_hat.sqrt() + opt.eps);
        }
    }

    /// Several steps over two slots whose lengths are off the lane width
    /// give the parameters and moments of the indexed loop, bit for bit.
    #[test]
    fn adam_step_bitwise_equals_indexed_loop() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = aasd_tensor::Rng::new(0xADA);
        let mut init = |n: usize| (0..n).map(|_| rng.normal()).collect::<Vec<f32>>();
        let (mut a, mut b) = (init(37), init(13));
        let (mut ref_params, weights) = ([a.clone(), b.clone()], [init(37), init(13)]);
        let mut ref_moments: [(Vec<f32>, Vec<f32>); 2] =
            [37, 13].map(|n| (vec![0.0; n], vec![0.0; n]));
        let mut opt = Adam::new();
        for step in 0..5 {
            // Loss Σ w·x², so each gradient 2·w·x depends on the step.
            let (grads, ids) = grads_of(&[&a, &b, &weights[0], &weights[1]], |tape, ids| {
                let sq = [tape.mul(ids[0], ids[0]), tape.mul(ids[1], ids[1])];
                let wa = tape.mul(sq[0], ids[2]);
                let wb = tape.mul(sq[1], ids[3]);
                let (sa, sb) = (tape.sum(wa), tape.sum(wb));
                tape.add(sa, sb)
            });
            let lr = 0.05 / (step + 1) as f32;
            opt.step(lr, &grads, &ids[..1], 0, |f| f("a", &mut a));
            opt.step(lr, &grads, &ids[1..2], 1, |f| f("b", &mut b));
            for (slot, (p, (m, v))) in ref_params.iter_mut().zip(&mut ref_moments).enumerate() {
                let g = &grads.get(ids[slot]).expect("reached").data;
                indexed_update(&opt, m, v, p, g);
                let (om, ov) = opt.state[slot].as_ref().unwrap();
                assert_eq!(bits(om), bits(m), "step {step} slot {slot} m");
                assert_eq!(bits(ov), bits(v), "step {step} slot {slot} v");
            }
            assert_eq!(bits(&a), bits(&ref_params[0]), "step {step} slot 0");
            assert_eq!(bits(&b), bits(&ref_params[1]), "step {step} slot 1");
        }
    }

    #[test]
    fn adam_state_is_per_slot() {
        let mut opt = Adam::new();
        let mut a = vec![1.0f32; 3];
        let mut b = vec![1.0f32; 5];
        for _ in 0..2 {
            let (grads, ids) = grads_of(&[&a, &b], |tape, ids| {
                let (sa, sb) = (tape.sum(ids[0]), tape.sum(ids[1]));
                tape.add(sa, sb)
            });
            // Two parameter groups in one step, as the joint draft +
            // projector update runs them.
            opt.step(0.1, &grads, &ids[..1], 0, |f| f("a", &mut a));
            opt.step(0.1, &grads, &ids[1..], 1, |f| f("b", &mut b));
        }
        assert_eq!(opt.t, 2, "the second group continues its step");
        assert_eq!(opt.state.len(), 2);
        assert_eq!(opt.state[0].as_ref().unwrap().0.len(), 3);
        assert_eq!(opt.state[1].as_ref().unwrap().0.len(), 5);
    }
}
