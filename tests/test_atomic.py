import errno
import os

import pytest

from volmixer import evaluation as ev
from volmixer.atomic import write_atomic
from volmixer.model import ModelConfig, TimeMixerModel
from volmixer.training import TrainReport


@pytest.fixture
def disk_full_midway(monkeypatch):
    """Make each ``os.write`` land half its bytes, then fail: a full disk."""
    real_write = os.write

    def half_then_fail(fd, data):
        real_write(fd, bytes(data[:len(data) // 2]))
        raise OSError(errno.ENOSPC, "No space left on device")

    return lambda: monkeypatch.setattr(os, "write", half_then_fail)


def snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestWriteAtomic:
    def test_writes_bytes_and_text(self, tmp_path):
        write_atomic(tmp_path / "a.bin", b"\x00\x01")
        write_atomic(tmp_path / "b.txt", "vol σ\n")
        assert snapshot(tmp_path) == {"a.bin": b"\x00\x01",
                                      "b.txt": "vol σ\n".encode()}

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("old\n")
        write_atomic(path, "new\n")
        assert snapshot(tmp_path) == {"metrics.csv": b"new\n"}

    def test_mode_matches_plain_write(self, tmp_path):
        write_atomic(tmp_path / "atomic", "x")
        (tmp_path / "plain").write_text("x")
        assert ((tmp_path / "atomic").stat().st_mode
                == (tmp_path / "plain").stat().st_mode)

    def test_failed_write_keeps_old_file(self, tmp_path, disk_full_midway):
        path = tmp_path / "report.md"
        path.write_text("old report\n")
        disk_full_midway()
        with pytest.raises(OSError):
            write_atomic(path, "new report " * 1000)
        assert snapshot(tmp_path) == {"report.md": b"old report\n"}

    def test_failed_first_write_leaves_nothing(self, tmp_path,
                                               disk_full_midway):
        disk_full_midway()
        with pytest.raises(OSError):
            write_atomic(tmp_path / "manifest.json", "{}" * 1000)
        assert list(tmp_path.iterdir()) == []


def save_checkpoint(path, seed):
    TimeMixerModel(ModelConfig(lookback=16, horizon=4, d_model=4,
                               num_blocks=1, num_scales=1, decomp_kernel=5,
                               ff_hidden=4, seed=seed)).save(path / "m.ckpt")


def write_train_report(path, seed):
    TrainReport(train_losses=[1.0 + seed], val_losses=[2.0], best_epoch=0,
                best_val_loss=2.0, stopping_reason="max_epochs",
                ).write(path / "m.train.json")


def emit_report(path, seed):
    record = ev.MetricsRecord("AAA", 4, mae=1.0 + seed, mse=4.0, rmse=2.0,
                              n_samples=3)
    ev.emit_report([record], path)


@pytest.mark.parametrize("write", [save_checkpoint, write_train_report,
                                   emit_report])
def test_artifact_writer_survives_failed_rewrite(tmp_path, disk_full_midway,
                                                 write):
    write(tmp_path, seed=1)
    before = snapshot(tmp_path)
    disk_full_midway()
    with pytest.raises(OSError):
        write(tmp_path, seed=2)
    assert snapshot(tmp_path) == before
