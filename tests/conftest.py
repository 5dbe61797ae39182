from hypothesis import settings

# Every run draws the same examples, and no example fails on wall time:
# some tests run threaded matvecs on a shared, noisy machine.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
