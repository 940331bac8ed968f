//! MIMONet serving checks: the executor's once-built item and key memory
//! answers like a fresh memory per request would, and building it lazily
//! under a threaded first batch changes no answer.

use nsflow_serve::executor::{Executor, ExecutorConfig};
use nsflow_serve::request::{Request, WorkloadKind};
use nsflow_tensor::par::{parallel_map, KernelOptions};
use nsflow_tensor::rng::StdRng;
use nsflow_workloads::superposition::{measure_capacity, CapacityConfig};

/// Request seeds per superposition width.
const SEEDS: u64 = 256;

/// Largest allowed gap between the served and the fresh-memory mean
/// accuracy at one width. One memory's own mean accuracy differs from
/// the mean over memories: over 32 memories at this geometry, measured
/// with 512 trials each, the spread (one standard deviation) is at most
/// 0.0065, at width 16. Sampling 256 seeds × 8 trials adds ~0.002 on each
/// side. 0.02 is three of those spreads: wide enough for any one
/// memory, narrow enough to catch a served curve that leaves the
/// capacity curve (a wrong key, a broken unbind or cleanup).
const TOLERANCE: f64 = 0.02;

fn mimonet(seed: u64) -> Request {
    Request::new(seed, WorkloadKind::Mimonet, seed, 0)
}

/// Mean served and mean fresh-memory retrieval accuracy at `width` over
/// [`SEEDS`] requests.
fn mean_accuracies(width: usize) -> (f64, f64) {
    let config = ExecutorConfig {
        superposition: width,
        ..ExecutorConfig::serial()
    };
    let executor = Executor::new(config);
    let served = (0..SEEDS)
        .map(|seed| executor.execute(&mimonet(seed)) as f64 / 1000.0)
        .sum::<f64>()
        / SEEDS as f64;

    let capacity = CapacityConfig {
        block_dim: config.block_dim,
        ..CapacityConfig::default()
    };
    let fresh = (0..SEEDS)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            measure_capacity(&capacity, width, config.trials, &mut rng).retrieval_accuracy
        })
        .sum::<f64>()
        / SEEDS as f64;
    (served, fresh)
}

#[test]
fn served_accuracy_tracks_fresh_memory_capacity() {
    let widths = [1usize, 4, 8, 12, 16];
    // One thread per width: the cases are independent.
    let means = parallel_map(&widths, widths.len(), |&width| mean_accuracies(width));

    let mut previous = f64::INFINITY;
    for (width, (served, fresh)) in widths.into_iter().zip(means) {
        if width == 1 {
            assert_eq!(served, 1.0, "a lone item must always be retrieved");
            assert_eq!(fresh, 1.0, "a lone item must always be retrieved");
        }
        assert!(
            (served - fresh).abs() <= TOLERANCE,
            "width {width}: served mean accuracy {served:.4} vs fresh-memory {fresh:.4}"
        );
        assert!(
            served <= previous,
            "width {width}: served accuracy {served:.4} rose above {previous:.4}"
        );
        previous = served;
    }
}

#[test]
fn lazy_memory_build_under_threads_matches_serial() {
    let requests: Vec<Request> = (0..16).map(mimonet).collect();
    // The first batch this executor sees is all MIMONet, so four threads
    // race to build the memory.
    let threaded = Executor::new(ExecutorConfig {
        kernels: KernelOptions::with_threads(4),
        ..ExecutorConfig::default()
    });
    let answers = threaded.execute_batch(&requests);

    let serial = Executor::new(ExecutorConfig::serial());
    let expected: Vec<u64> = requests.iter().map(|r| serial.execute(r)).collect();
    assert_eq!(answers, expected);
}
