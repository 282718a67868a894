"""Test-wide Hypothesis settings: a failing property test prints the blob
that reproduces it (pass it to ``@reproduce_failure``), so a failure seen
once can be replayed without sweeping seeds.  Example counts, deadlines and
derandomization stay as each test sets them."""

from hypothesis import settings

settings.register_profile("smc-kit", print_blob=True)
settings.load_profile("smc-kit")
