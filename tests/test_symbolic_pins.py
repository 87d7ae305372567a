"""Byte pins of the symbolic layer: pole catalogs and extension domains.

The sha256 of poles.json and domain.json for circle, half-circle,
float-root circle and sphere configs, and of the same payloads for
spectrum-only cross-sections whose discriminants are partly or wholly
irrational, so that any change to the exact or float pole bookkeeping
that moves an output byte fails here.  The poles digests were recorded
from the Fraction-based bookkeeping that the integer one replaced.  The
domain digests were recorded when the composition test became float-only
and domain.json lost its constant "rule" field; against the payloads
before, the only other change was -0.0 becoming 0.0 on float-root
spectra (the exponent of the addon x^0 and the Robin exponents taken from
it), checked for every config here.
"""

import hashlib
import math
from fractions import Fraction

import pytest

from conelab import (Config, build_extension, compute_bilaplacian_poles, compute_poles,
                     default_weight, from_spectrum, make_circle, make_sphere)
from conelab.cli import _ser, dispatch

CLI_PINS = {
    "circle-32": ({},
                  "79e44ccaeec3dcde0c639b92d04bdf8d0158f6651eee3863cb7bc545c8c33452",
                  "a4c2d566465734f1909904dc46b5448e01bd9c341e88324e02681d5af4f1f523"),
    "circle-128": ({"j_max": 128},
                   "58d4631c40ba6484be25786c65f513f6bb1967e0f04f0c8542718ef1062bc774",
                   "e8b0c38222c170a69661111bb2aba0339686c32fce5337193a58b5c1826aad4f"),
    # (2 pi / L)^2 is no integer: every root is a float; the double root
    # at 0 takes E_00 at gamma = 0 (the default) and at gamma = 0.5
    "L-3": ({"L": 3.0},
            "1a9a506110390ae5a454134187872513fae143a05af11e28b8dca47d65fcc88d",
            "ee7ed84aac97421c23ff5bd8c25e37bd2d624d7bf01a4036b444c50b8406e597"),
    "L-3-gamma-0.5": ({"L": 3.0, "gamma": 0.5},
                      "1a9a506110390ae5a454134187872513fae143a05af11e28b8dca47d65fcc88d",
                      "60c7c1308bb9fa41567a3301ee5159af7a8cb03a09c9343285e74f9d8e8d9d47"),
    "half-circle": ({"L": math.pi},
                    "b0dca9c3d66f3400853bcff529f4375d09759c56fdc8e43f20787d646b891837",
                    "7546adfaa7e27a3f8211411b3defc603f85704c4442109815ac8c5713c0f4d2e"),
    "gamma-0.25": ({"gamma": -0.25},
                   "79e44ccaeec3dcde0c639b92d04bdf8d0158f6651eee3863cb7bc545c8c33452",
                   "9c82352fb965dfbe825120eff659d7c8c9e7e2c628526a959a1bb4be3452c97e"),
    "sphere-6": ({"geometry": "sphere", "j_max": 6},
                 "55ab53714ee0f8bab31a68376ca6865a04ff64ec068eef10f17fdec4eab2335b",
                 "a0fe653e3c07d952a3d4441d16ebd63778b10d8992ee4c80b685622ed12515b0"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CLI_PINS))
def test_poles_and_domain_files_are_pinned(name, tmp_path):
    overrides, poles_sha, domain_sha = CLI_PINS[name]
    cfg = Config(**overrides)
    for command in ("poles", "domain"):
        assert dispatch(command, cfg, str(tmp_path)) == 0
    assert _sha((tmp_path / "poles.json").read_bytes()) == poles_sha
    assert _sha((tmp_path / "domain.json").read_bytes()) == domain_sha


# n = 3: the discriminant 1 - lam is a square at lam = 0, -3, -8 (exact
# roots) and not at -5, -6 (float roots), and at -5/4 and -21/4 a square
# of a fraction; with no exact spectrum every root is a float
SPECTRA = {
    "mixed": (lambda: from_spectrum(3, [0.0, -3.0, -5.0, -6.0, -8.0], [1, 4, 3, 2, 9],
                                    exact_eigenvalues=[0, -3, -5, -6, -8]), 0.5,
              "848bc84f7a9734b2f2ce01e0f8fc3a0f39f3ef66bbac74d2c6f49c837d88f99b",
              "3c145d0b6a3529b77cd3859242718893ca3c764085280c5a88b5332642036867"),
    "rational": (lambda: from_spectrum(3, [0.0, -1.25, -3.0, -5.25], [1, 2, 4, 2],
                                       exact_eigenvalues=[0, Fraction(-5, 4), -3,
                                                          Fraction(-21, 4)]),
                 None,
                 "d7517b474321afe94061b36f76c64d84bf3b3b0d8c548f3940633b7724c4f007",
                 "a2296342dd858013eba1481dfe8fed203f14301542319a127be7fd5b1529ee86"),
    "float-only": (lambda: from_spectrum(1, [0.0, -2.0, -5.0], [1, 2, 2]), None,
                   "971d6adf228b373436d061ccf324e919388fd72a4ba9bae3ac0feac0bdc1f45a",
                   "6f859cbd72297e600ee6f20267de054ee8145d64bcad43359fe55b68c31b445a"),
}


@pytest.mark.parametrize("name", sorted(SPECTRA))
def test_spectrum_payloads_are_pinned(name):
    build, gamma, poles_sha, domain_sha = SPECTRA[name]
    cs = build()
    poles = {"laplacian": compute_poles(cs).to_json_dict(),
             "bilaplacian": compute_bilaplacian_poles(cs).to_json_dict()}
    gamma = default_weight(cs) if gamma is None else gamma
    domain = build_extension(cs, gamma, 2.0).to_json_dict()
    assert _sha(_ser(poles).encode()) == poles_sha
    assert _sha(_ser(domain).encode()) == domain_sha


@pytest.mark.parametrize("cs", [make_circle(2.0 * math.pi, 8), make_circle(math.pi, 8),
                                make_sphere(2, 6), SPECTRA["mixed"][0](),
                                SPECTRA["rational"][0]()],
                         ids=["circle", "half-circle", "sphere", "mixed", "rational"])
def test_exact_values_are_fractions(cs):
    assert all(type(v) is Fraction for v in cs.exact_eigenvalues)
    exacts = [e.exact for cat in (compute_poles(cs), compute_bilaplacian_poles(cs))
              for e in cat if e.exact is not None]
    assert exacts and all(type(v) is Fraction for v in exacts)
