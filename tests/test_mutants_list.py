from mutants import MUTANTS, misplaced


def test_every_mutant_names_text_that_occurs_once():
    # A change that moves a guarded text must update tests/mutants.py.
    assert misplaced(MUTANTS) == []
