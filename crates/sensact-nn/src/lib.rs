//! # sensact-nn
//!
//! A compact, dependency-free neural-network library powering every learned
//! component of the paper reproduction: the R-MAE occupancy autoencoder
//! (§III), the contrastive Koopman encoder (§IV), STARNet's VAE monitor (§V),
//! the spiking/analog optical-flow networks (§VI) and the federated clients
//! (§VII).
//!
//! Design points:
//!
//! * **Manual backprop** — each [`layers::Layer`] caches what it needs in
//!   `forward` and produces parameter gradients plus the input gradient in
//!   `backward`. No autograd tape; the layer graph is explicit.
//! * **Deterministic** — all initialization takes an explicit seed
//!   ([`init::Initializer`]); experiments are reproducible bit-for-bit.
//! * **Accountable** — every layer reports parameters and multiply-accumulate
//!   operations ([`count`]), which is what Table II and Fig. 5a report.
//!
//! ## Example
//!
//! ```
//! use sensact_nn::{sequential::Sequential, layers::{Dense, Activation, ActKind, Layer}, tensor::Tensor,
//!                  loss, optim::{Adam, Optimizer}, init::Initializer};
//!
//! let mut init = Initializer::new(42);
//! let mut net = Sequential::new(vec![
//!     Box::new(Dense::new(2, 8, &mut init)),
//!     Box::new(Activation::new(ActKind::Tanh)),
//!     Box::new(Dense::new(8, 1, &mut init)),
//! ]);
//! let x = Tensor::from_vec(vec![4, 2], vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
//! let y = Tensor::from_vec(vec![4, 1], vec![0.0, 1.0, 1.0, 0.0]); // XOR
//! let mut opt = Adam::new(0.05);
//! for _ in 0..400 {
//!     let pred = net.forward(&x, true);
//!     let (_, grad) = loss::mse(&pred, &y);
//!     net.backward(&grad);
//!     opt.step(&mut net);
//!     net.zero_grad();
//! }
//! let pred = net.forward(&x, false);
//! let (final_loss, _) = loss::mse(&pred, &y);
//! assert!(final_loss < 0.05, "XOR loss {final_loss}");
//! ```

pub mod conv;
pub mod count;
pub mod init;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod quant;
pub mod sequential;
pub mod tensor;
pub mod vae;

pub use count::ModelStats;
pub use init::Initializer;
pub use layers::Layer;
pub use sequential::Sequential;
pub use tensor::Tensor;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{ActKind, Activation, Dense};

    /// End-to-end: a tiny MLP fits a linear function.
    #[test]
    fn mlp_fits_linear_map() {
        let mut init = Initializer::new(7);
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(1, 8, &mut init)),
            Box::new(Activation::new(ActKind::Relu)),
            Box::new(Dense::new(8, 1, &mut init)),
        ]);
        let xs: Vec<f64> = (0..16).map(|i| i as f64 / 8.0 - 1.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 0.5).collect();
        let x = Tensor::from_vec(vec![16, 1], xs);
        let y = Tensor::from_vec(vec![16, 1], ys);
        let mut opt = optim::Adam::new(0.02);
        use crate::optim::Optimizer;
        let mut last = f64::INFINITY;
        for _ in 0..500 {
            let pred = net.forward(&x, true);
            let (l, grad) = loss::mse(&pred, &y);
            last = l;
            net.backward(&grad);
            opt.step(&mut net);
            net.zero_grad();
        }
        assert!(last < 1e-3, "final loss {last}");
    }
}
