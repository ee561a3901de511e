"""Suite-wide settings."""

from hypothesis import settings

# every @given test draws the same examples on every run, so a pass or a
# failure repeats; tests that set their own @settings keep those values
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
