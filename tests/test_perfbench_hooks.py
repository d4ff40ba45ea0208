"""perfbench traces volmixer by patching names from outside the package
(``perfbench/spans.py``); every name it patches must still resolve, and a
traced training step must still record tape nodes and op calls."""

import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def fresh_volmixer():
    """volmixer imported afresh as perfbench imports it; the modules, and
    ``sys.path``, that other tests hold are put back afterwards."""
    saved_path = list(sys.path)
    saved = {name: mod for name, mod in sys.modules.items()
             if name == "volmixer" or name.startswith("volmixer.")}
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
        import workloads
        yield spans, workloads.fresh_import()
    finally:
        for name in [n for n in sys.modules
                     if n == "volmixer" or n.startswith("volmixer.")]:
            del sys.modules[name]
        sys.modules.update(saved)
        sys.path[:] = saved_path


def test_traced_train_step_resolves_every_target(fresh_volmixer):
    spans, vm = fresh_volmixer
    rec = spans.Recorder()
    cfg = vm.model.ModelConfig(lookback=16, horizon=2, d_model=4,
                               num_blocks=1, num_scales=2, decomp_kernel=3,
                               ff_hidden=4, seed=0)
    signal = np.sin(np.arange(120) / 5.0) + 2.0
    ds = vm.market_data.split_chronological(
        vm.market_data.make_windows(signal, 16, 2))
    # entering patches every target; a name that no longer resolves raises
    with spans.instrument(vm, rec):
        model = vm.model.TimeMixerModel(cfg)
        report = vm.training.train(
            model, ds, vm.training.TrainConfig(max_epochs=1, patience=1,
                                               batch_size=64, seed=0))
    assert np.isfinite(report.best_val_loss)
    assert rec.tape_nodes and all(n > 0 for n in rec.tape_nodes)
    assert rec.forward_ops and rec.counts["autodiff.linear.calls"] > 0
    names = {span[0] for span in rec.spans}
    assert {"model.forward_normalized", "model.pdm_forward",
            "model.fmm_forward", "training.adam_step",
            "training.train"} <= names
    # the constant maps build from the per-scale reference functions
    assert {"multiscale.build_multiscale", "multiscale.series_decomp"} <= names
