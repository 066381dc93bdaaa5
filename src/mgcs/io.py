"""Binary serialization of complex tensors and basis files.

Tensor files: magic, version, dimension count and sizes, then row-major
complex values as interleaved (re, im) float64 pairs.  Basis files add the
block geometry and a configuration fingerprint so a saved basis can only be
loaded against a matching system; round-trips are bit-exact.
"""

import hashlib
import math
import os
import struct

import numpy as np

from .errors import ConfigurationError, DomainError
from .estimator import BasisSpec

TENSOR_MAGIC = b"MGCT"
BASIS_MAGIC = b"MGBS"
VERSION = 1


def _read(fh, size, error):
    """The next ``size`` bytes; ``error`` when the file ends before them,
    checked before reading, so a header that claims more bytes than the file
    holds never sizes a read."""
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise error(f"{fh.name}: truncated file")
    return fh.read(size)


def _read_values(fh, shape, error):
    data = _read(fh, 16 * math.prod(shape), error)
    return np.frombuffer(data, dtype="<c16").reshape(shape).astype(np.complex128)


def save_tensor(path, array):
    """Write a complex tensor with a dimensions header."""
    a = np.asarray(array, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<II", VERSION, a.ndim))
        fh.write(struct.pack(f"<{a.ndim}Q", *a.shape))
        fh.write(a.tobytes())


def load_tensor(path):
    with open(path, "rb") as fh:
        if fh.read(4) != TENSOR_MAGIC:
            raise DomainError(f"{path}: not a tensor file")
        version, ndim = struct.unpack("<II", _read(fh, 8, DomainError))
        if version != VERSION:
            raise DomainError(f"{path}: unsupported version {version}")
        shape = struct.unpack(f"<{ndim}Q", _read(fh, 8 * ndim, DomainError))
        return _read_values(fh, shape, DomainError)


def config_fingerprint(cfg):
    """Hex digest tying a basis file to the CP-OFDM system it was made for
    (the key's last field is empty, as in files saved before)."""
    key = "|".join(str(v) for v in (cfg.K, cfg.N, cfg.L, cfg.D, cfg.J, "cp-ofdm", ""))
    return hashlib.sha256(key.encode()).hexdigest()


def save_basis(path, basis, fingerprint):
    """Write the :class:`BasisSpec` ``basis`` to a basis file (block width 1):
    a header-only DFT record when ``basis.is_dft``, however the basis was
    built, and the (D, J, J) blocks after the header otherwise."""
    fp = fingerprint.encode()
    with open(path, "wb") as fh:
        fh.write(BASIS_MAGIC)
        kind = 0 if basis.is_dft else 1
        fh.write(struct.pack("<IBIII", VERSION, kind, basis.J, basis.D, 1))
        fh.write(struct.pack("<I", len(fp)))
        fh.write(fp)
        if not basis.is_dft:
            fh.write(np.asarray(basis.blocks, dtype="<c16").tobytes())


def load_basis(path, fingerprint):
    """Read a basis file, refusing on header corruption or a fingerprint
    mismatch."""
    with open(path, "rb") as fh:
        if fh.read(4) != BASIS_MAGIC:
            raise ConfigurationError(f"{path}: not a basis file")
        version, kind, J, D, _ = struct.unpack("<IBIII", _read(fh, 17, ConfigurationError))
        if version != VERSION:
            raise ConfigurationError(f"{path}: unsupported version {version}")
        (fp_len,) = struct.unpack("<I", _read(fh, 4, ConfigurationError))
        stored = _read(fh, fp_len, ConfigurationError).decode(errors="replace")
        if stored != fingerprint:
            raise ConfigurationError(
                f"{path}: fingerprint mismatch (stored {stored[:12]}..., "
                f"expected {fingerprint[:12]}...)"
            )
        if kind == 0:
            return BasisSpec.dft(J, D)
        return BasisSpec(_read_values(fh, (D, J, J), ConfigurationError))
