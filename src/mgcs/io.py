"""Binary serialization of complex tensors and basis files.

Tensor files: magic, version, dimension count and sizes, then row-major
complex values as interleaved (re, im) float64 pairs.  Basis files add the
block geometry and a configuration fingerprint so a saved basis can only be
loaded against a matching system; round-trips are bit-exact.
"""

import hashlib
import struct

import numpy as np

from .errors import ConfigurationError, DomainError
from .estimator import BasisSpec

TENSOR_MAGIC = b"MGCT"
BASIS_MAGIC = b"MGBS"
VERSION = 1


def save_tensor(path, array):
    """Write a complex tensor with a dimensions header."""
    a = np.ascontiguousarray(np.asarray(array, dtype=np.complex128))
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<II", VERSION, a.ndim))
        fh.write(struct.pack(f"<{a.ndim}Q", *a.shape))
        interleaved = np.empty(a.size * 2, dtype="<f8")
        interleaved[0::2] = a.real.ravel()
        interleaved[1::2] = a.imag.ravel()
        fh.write(interleaved.tobytes())


def load_tensor(path):
    with open(path, "rb") as fh:
        if fh.read(4) != TENSOR_MAGIC:
            raise DomainError(f"{path}: not a tensor file")
        version, ndim = struct.unpack("<II", fh.read(8))
        if version != VERSION:
            raise DomainError(f"{path}: unsupported version {version}")
        shape = struct.unpack(f"<{ndim}Q", fh.read(8 * ndim))
        count = int(np.prod(shape)) * 2
        flat = np.frombuffer(fh.read(count * 8), dtype="<f8")
        if flat.size != count:
            raise DomainError(f"{path}: truncated payload")
    return (flat[0::2] + 1j * flat[1::2]).reshape(shape)


def config_fingerprint(cfg, prior_tag=""):
    """Hex digest tying a basis file to the CP-OFDM system it was made for."""
    key = "|".join(
        str(v) for v in (cfg.K, cfg.N, cfg.L, cfg.D, cfg.J, "cp-ofdm", prior_tag)
    )
    return hashlib.sha256(key.encode()).hexdigest()


def save_basis(path, basis, fingerprint, dm=1):
    """Write a basis file; the DFT tag is a header-only record."""
    fp = fingerprint.encode()
    with open(path, "wb") as fh:
        fh.write(BASIS_MAGIC)
        kind = 0 if basis.is_dft else 1
        fh.write(struct.pack("<IBIII", VERSION, kind, basis.J, basis.D, dm))
        fh.write(struct.pack("<I", len(fp)))
        fh.write(fp)
        if not basis.is_dft:
            blocks = np.ascontiguousarray(basis.blocks, dtype=np.complex128)
            interleaved = np.empty(blocks.size * 2, dtype="<f8")
            interleaved[0::2] = blocks.real.ravel()
            interleaved[1::2] = blocks.imag.ravel()
            fh.write(interleaved.tobytes())


def load_basis(path, fingerprint):
    """Read a basis file, refusing on header corruption or a fingerprint
    mismatch."""
    with open(path, "rb") as fh:
        if fh.read(4) != BASIS_MAGIC:
            raise ConfigurationError(f"{path}: not a basis file")
        version, kind, J, D, dm = struct.unpack("<IBIII", fh.read(17))
        if version != VERSION:
            raise ConfigurationError(f"{path}: unsupported version {version}")
        (fp_len,) = struct.unpack("<I", fh.read(4))
        stored = fh.read(fp_len).decode()
        if stored != fingerprint:
            raise ConfigurationError(
                f"{path}: fingerprint mismatch (stored {stored[:12]}..., "
                f"expected {fingerprint[:12]}...)"
            )
        if kind == 0:
            return BasisSpec.dft(J, D)
        count = D * J * J * 2
        flat = np.frombuffer(fh.read(count * 8), dtype="<f8")
        if flat.size != count:
            raise ConfigurationError(f"{path}: truncated block payload")
        blocks = (flat[0::2] + 1j * flat[1::2]).reshape(D, J, J)
        return BasisSpec.from_blocks(blocks)
