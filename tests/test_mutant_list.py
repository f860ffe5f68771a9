from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_once(mutant):
    # A mutant whose text no longer matches would mutate nothing.
    text = Path(ROOT, mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
