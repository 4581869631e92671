from perfbench.workloads import Workload

#: a workload small enough for unit tests (a round takes milliseconds)
TINY = Workload(
    name="tiny",
    why="unit tests",
    n_sparse=2_000,
    zipf_exponent=1.1,
    mem_capacity_params=10_000,
    batch_size=64,
    minibatches_per_gpu=1,
    warmup_rounds=2,
    rounds_per_second=1.0,
)
