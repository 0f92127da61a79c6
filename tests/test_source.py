import warnings
from pathlib import Path

import nilcone


def test_sources_compile_without_warnings():
    # an invalid escape such as "\c" in a docstring only warns; make it fail
    paths = sorted(Path(nilcone.__file__).parent.glob("*.py"))
    assert paths
    for path in paths:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(), str(path), "exec")
