"""Atomic whole-file writes for documents that readers poll.

:func:`write_atomic` writes the new bytes to a unique hidden temp file
beside the target, then swaps it into place with Linux
``renameat2(..., RENAME_EXCHANGE)`` and unlinks the temp, which by then
holds the old bytes. A concurrent reader opens either the old or the
new complete file, never a truncated one, and a process killed at any
instant leaves the last complete file behind (plus, at worst, one
hidden temp). Nothing is fsynced: the guarantee is against torn reads
and killed writers, not against power loss.

Why an exchange and not ``os.replace``: on ext4 (``auto_da_alloc``),
renaming over an existing file — or truncating one in place — forces
the new file's delayed blocks to be allocated and written back, and the
call waits on the journal (tens of milliseconds per write). An exchange
is just as atomic for readers and does not trip that heuristic.

When the target does not exist yet a plain ``os.replace`` is already
cheap, and where the exchange is unavailable (no ``renameat2`` symbol,
or a file system or kernel that rejects the flag) the swap falls back
to it.
"""

from __future__ import annotations

import ctypes
import errno
import itertools
import os

_AT_FDCWD = -100
_RENAME_EXCHANGE = 2

#: ``renameat2`` errors after which ``os.replace`` does the swap: the
#: target is absent (``ENOENT``) or the exchange is not supported.
_REPLACE_ERRNOS = frozenset(
    {errno.ENOENT, errno.EINVAL, errno.ENOSYS, errno.ENOTSUP,
     errno.EOPNOTSUPP})

#: Distinguishes concurrent writers in one process (e.g. a ticker
#: thread and a control loop) so they never share a temp file name.
_WRITE_SEQ = itertools.count()


def _load_renameat2():
    try:
        fn = ctypes.CDLL(None, use_errno=True).renameat2
    except (AttributeError, OSError, TypeError):
        return None
    fn.argtypes = [ctypes.c_int, ctypes.c_char_p, ctypes.c_int,
                   ctypes.c_char_p, ctypes.c_uint]
    fn.restype = ctypes.c_int
    return fn


_renameat2 = _load_renameat2()


def _exchange(a, b):
    """Atomically swap the directory entries ``a`` and ``b``."""
    if _renameat2 is None:
        raise OSError(errno.ENOSYS, "renameat2 is unavailable")
    if _renameat2(_AT_FDCWD, os.fsencode(a), _AT_FDCWD, os.fsencode(b),
                  _RENAME_EXCHANGE) != 0:
        err = ctypes.get_errno()
        raise OSError(err, os.strerror(err), b)


def _temp_path(path):
    """A hidden, per-process and per-call temp name beside ``path``.

    The name starts with a dot and ends in ``.tmp-<pid>-<n>``, so it
    matches no ``*.<ext>`` glob over the directory.
    """
    parent, base = os.path.split(os.fspath(path))
    return os.path.join(parent, f".{base}.tmp-{os.getpid()}"
                                f"-{next(_WRITE_SEQ)}")


def _swap_into_place(tmp, path):
    """Move the complete file ``tmp`` onto ``path``; ``tmp`` is gone after.

    Exchanges the two entries and unlinks ``tmp`` (now the old file);
    ``os.replace`` does the move when ``path`` does not exist or the
    exchange is unsupported.
    """
    try:
        _exchange(tmp, path)
    except OSError as exc:
        if exc.errno not in _REPLACE_ERRNOS:
            raise
        os.replace(tmp, path)
    else:
        os.unlink(tmp)


def write_atomic(path, data):
    """Replace ``path``'s contents with the bytes ``data``, atomically.

    Creates the parent directory if needed. A write that fails part-way
    removes its temp file and leaves ``path`` untouched. Returns
    ``path``.
    """
    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = _temp_path(path)
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        _swap_into_place(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
    return path
