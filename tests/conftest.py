"""Hypothesis profiles.

The default profile makes tier-1 reproducible: every run draws the same
examples. The `deep` profile explores with fresh random seeds and 20x the
examples. CI runs it as its own step, over the parser fuzzers, the two
adjoint identities, the three streaming equivalences (the chunked WAV
writer and the chunked roundtrip against their whole-signal versions, and
one-at-a-time sampling against one batched generator call) and the critic
step (train()'s noised batches against the critic loss that drew the noise
itself), whose example counts the profile sets:

    pytest --hypothesis-profile=deep tests/test_fuzz.py \
        tests/test_autodiff.py::test_unfold_fold_are_adjoint \
        tests/test_autodiff.py::test_conv2d_transposed_conv2d_are_adjoint \
        tests/test_audio_io.py::test_write_matches_whole_signal_writer \
        tests/test_cli.py::test_chunked_roundtrip_matches_whole_track \
        tests/test_cli.py::test_sample_matches_batched_generator \
        tests/test_train.py::test_critic_step_matches_noise_fn_oracle
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, max_examples=200)
settings.register_profile("deep", max_examples=4000)
settings.load_profile("tier1")
