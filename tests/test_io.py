"""Tests for the binary tensor and basis file formats."""

import hashlib
import struct

import numpy as np
import pytest

from mgcs.errors import ConfigurationError, DomainError
from mgcs.io import (
    config_fingerprint,
    load_basis,
    load_tensor,
    save_basis,
    save_tensor,
)
from mgcs.estimator import BasisSpec, dft_block
from mgcs.waveform import SystemConfig


def test_tensor_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    t = rng.normal(size=(3, 4, 2)) + 1j * rng.normal(size=(3, 4, 2))
    t[0, 0, 0] = complex(-0.0, 0.0)
    p = tmp_path / "t.bin"
    save_tensor(p, t)
    back = load_tensor(p)
    assert back.shape == t.shape
    assert back.tobytes() == t.tobytes()  # exact float64 bits, signed zeros too
    back[0, 0, 0] = 1  # a fresh array, not a view of the file's bytes


def test_tensor_bad_magic(tmp_path):
    p = tmp_path / "t.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(DomainError):
        load_tensor(p)


def test_tensor_truncated(tmp_path):
    rng = np.random.default_rng(1)
    t = rng.normal(size=(4, 4)) + 0j
    p = tmp_path / "t.bin"
    save_tensor(p, t)
    data = p.read_bytes()
    for cut in (6, 12, 20, len(data) - 16):  # in the header and in the payload
        p.write_bytes(data[:cut])
        with pytest.raises(DomainError):
            load_tensor(p)


def test_fingerprint_sensitivity():
    a = SystemConfig(K=16, N=20, L=8, D=8, J=4)
    b = SystemConfig(K=16, N=20, L=8, D=8, J=8)
    assert config_fingerprint(a) != config_fingerprint(b)
    assert config_fingerprint(a) == config_fingerprint(a)


def test_basis_file_of_the_earlier_writer_loads(tmp_path):
    """A basis file as written before save_basis lost its ``dm`` and
    config_fingerprint its ``prior_tag`` keyword (both at their defaults),
    laid out byte by byte, loads with today's fingerprint."""
    cfg = SystemConfig(K=16, N=20, L=8, D=2, J=4)
    fp = hashlib.sha256(b"16|20|8|2|4|cp-ofdm|").hexdigest().encode()
    assert config_fingerprint(cfg) == fp.decode()
    rng = np.random.default_rng(5)
    blocks = np.stack(
        [np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
         for _ in range(2)]
    )
    payload = np.empty(blocks.size * 2, dtype="<f8")
    payload[0::2], payload[1::2] = blocks.real.ravel(), blocks.imag.ravel()
    p = tmp_path / "parent.basis"
    p.write_bytes(b"MGBS" + struct.pack("<IBIII", 1, 1, 4, 2, 1)
                  + struct.pack("<I", len(fp)) + fp + payload.tobytes())
    assert load_basis(p, config_fingerprint(cfg)).blocks.tobytes() == blocks.tobytes()
    # and today's writer still writes that layout
    save_basis(tmp_path / "now.basis", BasisSpec(blocks), config_fingerprint(cfg))
    assert (tmp_path / "now.basis").read_bytes() == p.read_bytes()


def test_basis_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    blocks = np.stack(
        [np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
         for _ in range(3)]
    )
    basis = BasisSpec(blocks)
    p = tmp_path / "b.bin"
    save_basis(p, basis, "f" * 64)
    back = load_basis(p, "f" * 64)
    assert np.array_equal(back.blocks, blocks)


def test_dft_valued_blocks_save_as_the_header_only_record(tmp_path):
    # a basis equal to the DFT however it was built writes the header-only
    # record, the same bytes as BasisSpec.dft, and loads back as the DFT
    built = BasisSpec(np.stack([dft_block(4)] * 3))
    save_basis(tmp_path / "built.basis", built, "c" * 64)
    save_basis(tmp_path / "dft.basis", BasisSpec.dft(4, 3), "c" * 64)
    data = (tmp_path / "built.basis").read_bytes()
    assert data == (tmp_path / "dft.basis").read_bytes()
    assert len(data) == 4 + 17 + 4 + 64
    back = load_basis(tmp_path / "built.basis", "c" * 64)
    assert back.is_dft
    assert back.blocks.tobytes() == built.blocks.tobytes()


def test_basis_fingerprint_mismatch(tmp_path):
    p = tmp_path / "b.bin"
    save_basis(p, BasisSpec.dft(4, 3), "a" * 64)
    with pytest.raises(ConfigurationError):
        load_basis(p, "b" * 64)


def test_basis_corrupt_header(tmp_path):
    p = tmp_path / "b.bin"
    p.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(ConfigurationError):
        load_basis(p, "a" * 64)
    save_basis(p, BasisSpec.dft(4, 3), "a" * 64)
    data = p.read_bytes()
    for cut in (10, 23, 40):  # in the fixed header, the length, the fingerprint
        p.write_bytes(data[:cut])
        with pytest.raises(ConfigurationError):
            load_basis(p, "a" * 64)
    p.write_bytes(data[:25] + b"\xff" * 64)  # a fingerprint that is not text
    with pytest.raises(ConfigurationError):
        load_basis(p, "a" * 64)
