"""Tests for the shared runtime-resilience utilities (repro.runtime)."""

import json

import pytest

from repro.runtime import (
    HAS_ALARM,
    JsonlJournal,
    TimeLimitExceeded,
    retry_with_backoff,
    time_limit,
)


class TestTimeLimit:
    def test_disabled_when_falsy(self):
        with time_limit(None):
            total = sum(range(1000))
        assert total == 499500
        with time_limit(0):
            pass

    @pytest.mark.skipif(not HAS_ALARM, reason="platform lacks SIGALRM")
    def test_interrupts_pure_python_loop(self):
        with pytest.raises(TimeLimitExceeded):
            with time_limit(0.05):
                while True:
                    pass

    @pytest.mark.skipif(not HAS_ALARM, reason="platform lacks SIGALRM")
    def test_fast_body_completes(self):
        with time_limit(5.0):
            value = 1 + 1
        assert value == 2

    @pytest.mark.skipif(not HAS_ALARM, reason="platform lacks SIGALRM")
    def test_nested_limits_restore_outer_budget(self):
        # The inner limit expires; the outer one must still be armed
        # afterwards and fire on the remaining loop.
        with pytest.raises(TimeLimitExceeded):
            with time_limit(10.0):
                with pytest.raises(TimeLimitExceeded):
                    with time_limit(0.05):
                        while True:
                            pass
                # Outer budget shrank but survives the inner limit; a
                # second inner limit still interrupts.
                with time_limit(0.05):
                    while True:
                        pass


class TestRetryWithBackoff:
    def test_first_try_success(self):
        result, attempts = retry_with_backoff(lambda: 42, sleep=lambda s: None)
        assert result == 42
        assert attempts == 1

    def test_retries_then_succeeds_with_exponential_delays(self):
        calls = {"n": 0}
        delays = []
        notified = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TimeLimitExceeded("slow")
            return "done"

        result, attempts = retry_with_backoff(
            flaky,
            retries=3,
            base_delay=0.5,
            factor=2.0,
            sleep=delays.append,
            on_retry=lambda attempt, exc: notified.append(attempt),
        )
        assert result == "done"
        assert attempts == 3
        assert delays == [0.5, 1.0]
        assert notified == [1, 2]

    def test_exhausted_retries_raise(self):
        calls = {"n": 0}

        def always_slow():
            calls["n"] += 1
            raise TimeLimitExceeded("slow")

        with pytest.raises(TimeLimitExceeded):
            retry_with_backoff(always_slow, retries=2, sleep=lambda s: None)
        assert calls["n"] == 3  # initial try + 2 retries

    def test_non_retryable_exception_propagates_immediately(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise ValueError("bug")

        with pytest.raises(ValueError):
            retry_with_backoff(broken, retries=5, sleep=lambda s: None)
        assert calls["n"] == 1


class TestJsonlJournal:
    def test_append_and_load_round_trip(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with JsonlJournal(path) as journal:
            journal.append({"case": "A#0", "status": "ok"})
            journal.append({"case": "A#1", "status": "timeout"})
        loaded = JsonlJournal(path).load()
        assert loaded == [
            {"case": "A#0", "status": "ok"},
            {"case": "A#1", "status": "timeout"},
        ]

    def test_load_missing_file_is_empty(self, tmp_path):
        assert JsonlJournal(str(tmp_path / "absent.jsonl")).load() == []

    def test_records_are_deterministic_lines(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with JsonlJournal(path) as journal:
            journal.append({"b": 2, "a": 1})
        line = open(path).read().strip()
        assert line == '{"a":1,"b":2}'
        assert json.loads(line) == {"a": 1, "b": 2}

    def test_torn_final_line_skipped(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with JsonlJournal(path) as journal:
            journal.append({"case": "A#0"})
            journal.append({"case": "A#1"})
        with open(path, "a") as handle:
            handle.write('{"case": "A#2", "sta')  # crash mid-append
        loaded = JsonlJournal(path).load()
        assert [record["case"] for record in loaded] == ["A#0", "A#1"]

    def test_append_after_reload_continues_file(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with JsonlJournal(path) as journal:
            journal.append({"case": "A#0"})
        with JsonlJournal(path) as journal:
            journal.append({"case": "A#1"})
        assert [r["case"] for r in JsonlJournal(path).load()] == [
            "A#0", "A#1",
        ]

    def test_truncated_final_line_counts_on_obs(self, tmp_path):
        from repro import obs

        path = str(tmp_path / "journal.jsonl")
        with JsonlJournal(path) as journal:
            journal.append({"case": "A#0"})
        with open(path, "a") as handle:
            handle.write('{"case": "A#1", "sta')
        obs.reset()
        with obs.observed():
            loaded = JsonlJournal(path).load()
            truncated = obs.counter("runtime.journal.truncated").value
        obs.reset()
        obs.enabled = False
        assert [record["case"] for record in loaded] == ["A#0"]
        assert truncated == 1

    def test_dedupe_first_write_wins_and_counts(self, tmp_path):
        from repro import obs

        path = str(tmp_path / "journal.jsonl")
        with JsonlJournal(path) as journal:
            journal.append({"event": "done", "id": "j1", "n": 1})
            journal.append({"event": "submit", "id": "j1"})
            journal.append({"event": "done", "id": "j1", "n": 2})
            journal.append({"event": "done", "id": "j2", "n": 3})

        def identity(record):
            if record.get("event") == "done":
                return ("done", record["id"])
            return None

        obs.reset()
        with obs.observed():
            loaded = JsonlJournal(path).load(dedupe=identity)
            duplicates = obs.counter("runtime.journal.duplicate").value
        obs.reset()
        obs.enabled = False
        assert duplicates == 1
        assert [record.get("n") for record in loaded] == [1, None, 3]

    def test_dedupe_none_keys_never_collapse(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with JsonlJournal(path) as journal:
            journal.append({"event": "case", "id": "j1"})
            journal.append({"event": "case", "id": "j1"})  # identical
        loaded = JsonlJournal(path).load(dedupe=lambda record: None)
        assert len(loaded) == 2

    def test_load_without_dedupe_keeps_duplicates(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with JsonlJournal(path) as journal:
            journal.append({"event": "done", "id": "j1"})
            journal.append({"event": "done", "id": "j1"})
        assert len(JsonlJournal(path).load()) == 2

    def test_corrupt_interior_line_skipped_not_fatal(self, tmp_path):
        # Records after a damaged interior line must survive the reload
        # (a resume that silently dropped the tail would re-run finished
        # work — or worse, report it lost).
        from repro import obs

        path = str(tmp_path / "journal.jsonl")
        with JsonlJournal(path) as journal:
            journal.append({"case": "A#0"})
        with open(path, "a") as handle:
            handle.write('###garbage###\n')
        with JsonlJournal(path) as journal:
            journal.append({"case": "A#2"})
        obs.reset()
        with obs.observed():
            loaded = JsonlJournal(path).load()
            corrupt = obs.counter("runtime.journal.corrupt").value
        obs.reset()
        obs.enabled = False
        assert [record["case"] for record in loaded] == ["A#0", "A#2"]
        assert corrupt == 1

    def test_two_processes_appending_one_journal(self, tmp_path):
        # O_APPEND single-write lines: two uncoordinated writers may
        # interleave records but never tear each other's lines.
        import subprocess
        import sys

        path = str(tmp_path / "journal.jsonl")
        script = (
            "import sys\n"
            "from repro.runtime import JsonlJournal\n"
            "journal = JsonlJournal(sys.argv[1])\n"
            "for index in range(50):\n"
            "    journal.append({'writer': sys.argv[2], 'index': index})\n"
            "journal.close()\n"
        )
        procs = [
            subprocess.Popen([sys.executable, "-c", script, path, name])
            for name in ("alpha", "beta")
        ]
        for proc in procs:
            assert proc.wait(timeout=60) == 0
        loaded = JsonlJournal(path).load()
        assert len(loaded) == 100
        for name in ("alpha", "beta"):
            indices = [r["index"] for r in loaded if r["writer"] == name]
            assert indices == list(range(50))  # per-writer order intact


class TestTimeLimitThreading:
    @pytest.mark.skipif(not HAS_ALARM, reason="platform lacks SIGALRM")
    def test_off_main_thread_raises_clear_error(self):
        import threading

        failures = []

        def worker():
            try:
                with time_limit(1.0):
                    pass
            except RuntimeError as exc:
                failures.append(str(exc))

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert len(failures) == 1
        assert "main thread" in failures[0]
        assert "repro.serve worker process" in failures[0]


class TestBackoffJitter:
    def test_jitter_scales_delays_with_injected_rng(self):
        calls = {"n": 0}
        delays = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TimeLimitExceeded("slow")
            return "done"

        result, attempts = retry_with_backoff(
            flaky,
            retries=3,
            base_delay=1.0,
            factor=2.0,
            jitter=0.5,
            sleep=delays.append,
            rng=lambda: 1.0,  # worst case: full jitter every wait
        )
        assert result == "done"
        assert delays == [1.5, 3.0]  # base * factor**n, scaled by 1.5

    def test_zero_jitter_is_exact_schedule(self):
        from repro.runtime import backoff_delay

        assert backoff_delay(1, base_delay=0.5, factor=2.0) == 0.5
        assert backoff_delay(3, base_delay=0.5, factor=2.0) == 2.0
        jittered = backoff_delay(
            2, base_delay=0.5, factor=2.0, jitter=0.2, rng=lambda: 0.5
        )
        assert jittered == pytest.approx(1.1)
