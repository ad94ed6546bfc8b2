"""Byte-identical gate on the verification suite's output.

The line counts and sha256 digests of ``verify --seed s --trials 50``
stdout were recorded before the spectrum routes, report construction and
number-theory helpers were consolidated; a refactor must reproduce them
exactly.  A change that alters the output on purpose re-records them and
says why.
"""

import contextlib
import hashlib
import io

import pytest

from spectra_forge import cli

GOLDEN = {
    7: (1057, "780b3196483643a9ee27dbc53fdc0c507ada8d1531cf5b7c460c11bcc52ea2c9"),
    11: (1022, "4fcf838cd3e9435b9de4078a49a6ae997bf75058c971a7e3a1b235d8ebf06045"),
    23: (1120, "d12686f4c9e5d22609c81905ff1f76a6897eab00c6a1da5fd576f18cf1b76c65"),
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_verify_output_is_byte_identical(seed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--seed", str(seed), "--trials", "50"])
    text = out.getvalue()
    lines, digest = GOLDEN[seed]
    assert code == 0
    assert len(text.splitlines()) == lines
    assert hashlib.sha256(text.encode()).hexdigest() == digest
