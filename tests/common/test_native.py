"""Tests for repro.common.native: the compile-on-first-use C kernel loader."""

import multiprocessing
import os
import shutil
import stat
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.common import native

needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler on PATH")

SOURCE = "int answer(void) { return 42; }\n"


@pytest.fixture
def cache_home(tmp_path, monkeypatch):
    """A fresh ``XDG_CACHE_HOME``; returns the kernel cache inside it."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "repro" / "native"


@pytest.fixture
def source(tmp_path):
    path = tmp_path / "answer.c"
    path.write_text(SOURCE)
    return path


def answer_in_child(source, cache_home):
    """Build and call the test kernel in a fresh worker process."""
    os.environ["XDG_CACHE_HOME"] = cache_home
    lib = native.load(Path(source))
    return None if lib is None else lib.answer()


def no_compiler(monkeypatch, tmp_path):
    empty = tmp_path / "empty-bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))


class TestCacheDir:
    def test_follows_xdg_cache_home(self, cache_home):
        assert native.cache_dir() == cache_home

    def test_defaults_under_home(self, tmp_path, monkeypatch):
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))
        assert native.cache_dir() == tmp_path / ".cache" / "repro" / "native"

    def test_empty_xdg_means_unset(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", "")
        monkeypatch.setenv("HOME", str(tmp_path))
        assert native.cache_dir() == tmp_path / ".cache" / "repro" / "native"


@needs_cc
class TestBuild:
    def test_builds_into_a_private_cache(self, source, cache_home):
        lib = native.load(source)
        assert lib is not None and lib.answer() == 42
        assert stat.S_IMODE(cache_home.stat().st_mode) == 0o700
        built = sorted(path.name for path in cache_home.iterdir())
        # One object named by the source stem and key; no temporary left.
        assert len(built) == 1
        assert built[0].startswith("answer-") and built[0].endswith(".so")

    def test_cached_object_loads_without_a_compiler(
            self, source, cache_home, tmp_path, monkeypatch):
        assert native.load(source) is not None
        no_compiler(monkeypatch, tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lib = native.load(source)
        assert lib.answer() == 42

    def test_edited_source_builds_afresh(self, source, cache_home):
        native.load(source)
        source.write_text(SOURCE.replace("42", "43"))
        assert native.load(source).answer() == 43
        assert len(list(cache_home.iterdir())) == 2

    def test_concurrent_first_builds_share_one_object(self, source,
                                                      cache_home):
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=3, mp_context=spawn) as pool:
            futures = [pool.submit(answer_in_child, str(source),
                                   os.environ["XDG_CACHE_HOME"])
                       for _ in range(3)]
            answers = [future.result(timeout=120) for future in futures]
        assert answers == [42, 42, 42]
        assert len(list(cache_home.iterdir())) == 1

    def test_compile_error_falls_back(self, tmp_path, cache_home):
        broken = tmp_path / "broken.c"
        broken.write_text("int answer(void) { return }\n")
        with pytest.warns(RuntimeWarning, match="cc exited"):
            assert native.load(broken) is None
        assert list(cache_home.iterdir()) == []


class TestFallback:
    def test_no_compiler(self, source, cache_home, tmp_path, monkeypatch):
        no_compiler(monkeypatch, tmp_path)
        with pytest.warns(RuntimeWarning, match=r"no C compiler \(cc\)"):
            assert native.load(source) is None

    def test_missing_source(self, tmp_path, cache_home):
        with pytest.warns(RuntimeWarning, match="missing.c unavailable"):
            assert native.load(tmp_path / "missing.c") is None

    def test_cache_path_is_a_file(self, source, tmp_path, monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        with pytest.warns(RuntimeWarning, match="cache directory"):
            assert native.load(source) is None

    @pytest.mark.parametrize("mode", [0o770, 0o707])
    def test_refuses_a_writable_cache(self, source, cache_home, mode):
        cache_home.mkdir(parents=True)
        os.chmod(cache_home, mode)
        with pytest.warns(RuntimeWarning, match="group- or world-writable"):
            assert native.load(source) is None

    def test_refuses_a_cache_owned_by_someone_else(
            self, source, cache_home, monkeypatch):
        uid = os.getuid()
        monkeypatch.setattr(native.os, "getuid", lambda: uid + 1)
        with pytest.warns(RuntimeWarning, match="not owned"):
            assert native.load(source) is None
