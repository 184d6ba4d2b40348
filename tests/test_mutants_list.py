from mutants import MUTANTS, misplaced, unresolved


def test_every_mutant_names_text_that_occurs_once():
    # A change that moves a guarded text must update tests/mutants.py.
    assert misplaced(MUTANTS) == []


def test_every_test_a_mutant_names_resolves():
    # A renamed test must be renamed in tests/mutants.py too.
    assert unresolved(MUTANTS) == []
