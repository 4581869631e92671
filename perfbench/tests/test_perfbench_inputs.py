import numpy as np
import pytest

from repro.data.generator import CTRDataGenerator

from perfbench import checks
from perfbench.workloads import PregeneratedBatches, set_up

from helpers import TINY


def generator(seed):
    return CTRDataGenerator(
        TINY.model_spec(), seed=seed, zipf_exponent=TINY.zipf_exponent
    )


def test_pregenerated_batches_equal_generator_batches():
    inputs = PregeneratedBatches(generator(5), 6, TINY.batch_size)
    fresh = generator(5)
    for i in range(6):
        a, b = inputs.batch(i, TINY.batch_size), fresh.batch(i, TINY.batch_size)
        assert np.array_equal(a.keys, b.keys)
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.labels, b.labels)
    assert checks.input_problems(TINY, 5, inputs) == []


def test_pregenerated_batches_refuse_unknown_requests():
    inputs = PregeneratedBatches(generator(0), 2, TINY.batch_size)
    with pytest.raises(LookupError):
        inputs.batch(2, TINY.batch_size)
    with pytest.raises(ValueError):
        inputs.batch(0, TINY.batch_size + 1)


def test_input_check_catches_a_wrong_seed():
    inputs = PregeneratedBatches(generator(1), 4, TINY.batch_size)
    assert checks.input_problems(TINY, 2, inputs)


def test_set_up_serves_every_node_from_the_pregenerated_inputs(tmp_path):
    setup = set_up(TINY, 3, 4, str(tmp_path))
    cluster = setup.cluster
    assert len(setup.inputs) == (TINY.warmup_rounds + 4) * TINY.n_nodes
    assert all(n.hdfs.generator is setup.inputs for n in cluster.nodes)
    assert cluster.rounds_completed == TINY.warmup_rounds
    # The served stream is the library's: the reference check passes.
    cluster.train_pipelined(4)
    assert checks.reference_problems(TINY, 3, cluster) == []
    # Running past the generated inputs is an error, not fresh data.
    with pytest.raises(LookupError):
        cluster.train_pipelined(1)
