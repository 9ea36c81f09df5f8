//! Machine ceilings measured by the benchmark itself, so a kernel's GFLOP/s
//! and a layer's bytes moved have a base: peak FMA throughput of one core
//! from an unrolled FMA chain, and copy bandwidth over buffers far larger
//! than L2. Best of five each (the floor is the machine, the rest is the
//! neighbour).

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

const REPEATS: usize = 5;
/// Doubles per stream buffer: 32 MiB, well past 4× any L2.
const STREAM_LEN: usize = 4 << 20;

#[derive(Debug, Clone, Copy)]
pub struct Ceilings {
    pub fma_peak_gflops: f64,
    pub stream_gbps: f64,
}

/// Measured once per process, on first use (only the traced pass asks, so
/// the untraced pass's peak RSS never includes the stream buffers).
pub fn get() -> Ceilings {
    static CEILINGS: OnceLock<Ceilings> = OnceLock::new();
    *CEILINGS.get_or_init(|| Ceilings {
        fma_peak_gflops: fma_peak_gflops(),
        stream_gbps: stream_gbps(),
    })
}

fn best_of(mut f: impl FnMut() -> f64) -> f64 {
    (0..REPEATS).map(|_| f()).fold(0.0, f64::max)
}

const FMA_ITERS: usize = 4_000_000;

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_chain_avx2(iters: usize) -> f64 {
    use std::arch::x86_64::*;
    // Ten independent accumulators cover two FMA ports at 5-cycle latency.
    let a = _mm256_set1_pd(black_box(1.000_000_1));
    let b = _mm256_set1_pd(black_box(1e-9));
    let mut acc = [_mm256_set1_pd(1.0); 10];
    for _ in 0..iters {
        for x in &mut acc {
            *x = _mm256_fmadd_pd(*x, a, b);
        }
    }
    let mut sum = _mm256_setzero_pd();
    for x in acc {
        sum = _mm256_add_pd(sum, x);
    }
    // Fold the four lanes into the low one so every chain is observed.
    sum = _mm256_add_pd(sum, _mm256_permute2f128_pd(sum, sum, 1));
    sum = _mm256_hadd_pd(sum, sum);
    _mm256_cvtsd_f64(sum)
}

fn fma_chain_scalar(iters: usize) -> f64 {
    let (a, b) = (black_box(1.000_000_1f64), black_box(1e-9f64));
    let mut acc = [1.0f64; 8];
    for _ in 0..iters {
        for x in &mut acc {
            *x = *x * a + b;
        }
    }
    acc.iter().sum()
}

fn fma_peak_gflops() -> f64 {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        return best_of(|| {
            let t = Instant::now();
            // SAFETY: AVX2 and FMA were detected on this CPU just above.
            black_box(unsafe { fma_chain_avx2(FMA_ITERS) });
            (FMA_ITERS * 10 * 4 * 2) as f64 / t.elapsed().as_secs_f64() / 1e9
        });
    }
    best_of(|| {
        let t = Instant::now();
        black_box(fma_chain_scalar(FMA_ITERS));
        (FMA_ITERS * 8 * 2) as f64 / t.elapsed().as_secs_f64() / 1e9
    })
}

fn stream_gbps() -> f64 {
    let src = vec![1.0f64; STREAM_LEN];
    let mut dst = vec![0.0f64; STREAM_LEN];
    dst.copy_from_slice(&src); // fault the pages in before timing
    best_of(|| {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        // Every byte is read once and written once.
        (2 * STREAM_LEN * 8) as f64 / t.elapsed().as_secs_f64() / 1e9
    })
}
