"""Atomic whole-file writes (:mod:`repro.utils.fileio`).

``write_atomic`` swaps a complete temp file into place with
``renameat2(RENAME_EXCHANGE)``, falling back to ``os.replace`` where the
target is absent or the exchange is unsupported. Readers must only ever
see a complete document, and no temp file may outlive a write.
"""

import errno
import json
import os
import sys
import threading

import pytest

from repro.obs import live
from repro.utils import fileio


def _exchange_supported(directory):
    a, b = os.path.join(directory, ".probe-a"), os.path.join(directory,
                                                             ".probe-b")
    for path in (a, b):
        with open(path, "wb"):
            pass
    try:
        fileio._exchange(a, b)
    except OSError as exc:
        if exc.errno in fileio._REPLACE_ERRNOS:
            return False
        raise
    finally:
        for path in (a, b):
            os.unlink(path)
    return True


class TestWriteAtomic:
    def test_absent_target_is_created(self, tmp_path):
        path = tmp_path / "sub" / "doc.bin"
        assert fileio.write_atomic(path, b"hello\n") == str(path)
        assert path.read_bytes() == b"hello\n"
        assert os.listdir(path.parent) == ["doc.bin"]

    def test_present_target_is_replaced(self, tmp_path):
        path = tmp_path / "doc.bin"
        path.write_bytes(b"old contents, longer than the new ones\n")
        fileio.write_atomic(path, b"new\n")
        assert path.read_bytes() == b"new\n"
        assert os.listdir(tmp_path) == ["doc.bin"]

    def test_repeated_writes_leave_no_temp_files(self, tmp_path):
        path = tmp_path / "doc.bin"
        for i in range(20):
            fileio.write_atomic(path, str(i).encode())
        assert path.read_bytes() == b"19"
        assert os.listdir(tmp_path) == ["doc.bin"]

    def test_failed_write_keeps_target_and_removes_temp(self, tmp_path,
                                                        failing_write):
        path = tmp_path / "doc.bin"
        path.write_bytes(b"previous\n")
        with pytest.raises(OSError, match="No space"):
            fileio.write_atomic(path, b"replacement\n")
        assert path.read_bytes() == b"previous\n"
        assert os.listdir(tmp_path) == ["doc.bin"]

    def test_temp_name_is_hidden_and_unique(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        first, second = fileio._temp_path(path), fileio._temp_path(path)
        assert first != second
        for name in (os.path.basename(first), os.path.basename(second)):
            assert name.startswith(".trace.jsonl.tmp-")
            assert not name.endswith(".jsonl")


class TestFallback:
    @pytest.fixture
    def no_renameat2(self, monkeypatch):
        monkeypatch.setattr(fileio, "_renameat2", None)

    @pytest.mark.parametrize("present", [False, True])
    def test_missing_symbol_falls_back_to_replace(self, tmp_path,
                                                  no_renameat2, present):
        path = tmp_path / "doc.bin"
        if present:
            path.write_bytes(b"old\n")
        fileio.write_atomic(path, b"same bytes\n")
        assert path.read_bytes() == b"same bytes\n"
        assert os.listdir(tmp_path) == ["doc.bin"]

    @pytest.mark.parametrize("code", [errno.EINVAL, errno.ENOSYS,
                                      errno.ENOTSUP])
    def test_unsupported_exchange_falls_back_to_replace(self, tmp_path,
                                                        monkeypatch, code):
        def refuse(a, b):
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(fileio, "_exchange", refuse)
        path = tmp_path / "doc.bin"
        path.write_bytes(b"old\n")
        fileio.write_atomic(path, b"same bytes\n")
        assert path.read_bytes() == b"same bytes\n"
        assert os.listdir(tmp_path) == ["doc.bin"]

    def test_other_errors_propagate(self, tmp_path, monkeypatch):
        def deny(a, b):
            raise OSError(errno.EACCES, os.strerror(errno.EACCES))

        monkeypatch.setattr(fileio, "_exchange", deny)
        path = tmp_path / "doc.bin"
        path.write_bytes(b"old\n")
        with pytest.raises(PermissionError):
            fileio.write_atomic(path, b"new\n")
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["doc.bin"]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="renameat2 is Linux-only")
def test_existing_target_is_exchanged_not_replaced(tmp_path, monkeypatch):
    """On Linux an existing target is swapped without ``os.replace``.

    ``os.replace`` onto an existing file is what makes ext4 write the
    new data back synchronously; the exchange path must not call it.
    """
    if not _exchange_supported(str(tmp_path)):
        pytest.skip("this file system rejects RENAME_EXCHANGE")
    path = tmp_path / "status.json"
    path.write_bytes(b"{}\n")
    old_inode = os.stat(path).st_ino

    def forbidden(*args, **kwargs):
        raise AssertionError("os.replace called on an existing target")

    monkeypatch.setattr(fileio.os, "replace", forbidden)
    fileio.write_atomic(path, b'{"ok": 1}\n')
    assert path.read_bytes() == b'{"ok": 1}\n'
    assert os.stat(path).st_ino != old_inode
    assert os.listdir(tmp_path) == ["status.json"]


def test_reader_never_sees_a_torn_or_missing_status(tmp_path):
    """A reader polling through 500 writes only ever parses whole docs."""
    path = tmp_path / "status.json"
    live.write_json_atomic(path, {"i": 0, "pad": ""})
    n_writes = 500
    done = threading.Event()
    seen, errors = [], []

    def reader():
        while not done.is_set():
            try:
                doc = live.read_status(path)
            except Exception as exc:  # torn JSON or a missing file
                errors.append(repr(exc))
                return
            # The pad length encodes ``i``: a spliced document fails it.
            if len(doc["pad"]) != 7 * (doc["i"] % 97):
                errors.append(f"inconsistent document {doc['i']}")
                return
            seen.append(doc["i"])

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    thread = threading.Thread(target=reader)
    thread.start()
    try:
        for i in range(1, n_writes + 1):
            live.write_json_atomic(path, {"i": i, "pad": "x" * 7 * (i % 97)})
    finally:
        done.set()
        thread.join(timeout=30)
        sys.setswitchinterval(switch)
    assert not thread.is_alive()
    assert errors == []
    assert seen, "the reader never got a turn"
    assert json.loads(path.read_text())["i"] == n_writes
    assert os.listdir(tmp_path) == ["status.json"]
