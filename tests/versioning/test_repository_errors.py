"""Corruption and misuse handling in the repositories."""

import json

import pytest

from repro.core import assign_initial_xids
from repro.versioning import (
    DirectoryRepository,
    MemoryRepository,
    VersionStore,
    open_repository,
)
from repro.xmlkit import RepositoryError, parse, serialize_bytes


def make_repo(tmp_path):
    repo = DirectoryRepository(tmp_path / "store")
    doc = parse("<a><b>x</b></a>")
    allocator = assign_initial_xids(doc)
    repo.create("d1", doc, allocator)
    return repo


class TestCorruption:
    def test_corrupt_meta_json(self, tmp_path):
        from repro.versioning import CorruptStoreError

        repo = make_repo(tmp_path)
        meta_path = tmp_path / "store" / "d1" / "meta.json"
        meta_path.write_text("{not json")
        with pytest.raises(CorruptStoreError) as info:
            repo.load_current("d1")
        # the typed error names the offending file
        assert info.value.path == str(meta_path)
        # CorruptStoreError stays a RepositoryError: one catch suffices
        assert isinstance(info.value, RepositoryError)

    def test_corrupt_delta_file(self, tmp_path):
        from repro.core import DiffConfig, diff
        from repro.versioning import CorruptStoreError

        repo = make_repo(tmp_path)
        old = repo.load_current("d1")
        new = parse("<a><b>y</b></a>")
        delta = diff(old, new, DiffConfig())
        repo.append("d1", delta, new, repo.load_allocator("d1"))
        delta_path = tmp_path / "store" / "d1" / "delta-0001-0002.xml"
        delta_path.write_text("<delta truncated")
        with pytest.raises(CorruptStoreError) as info:
            repo.load_delta("d1", 1)
        assert info.value.path == str(delta_path)

    def test_unknown_document_stays_plain_repository_error(self, tmp_path):
        from repro.versioning import CorruptStoreError

        repo = make_repo(tmp_path)
        with pytest.raises(RepositoryError) as info:
            repo.load_current("missing")
        assert not isinstance(info.value, CorruptStoreError)

    def test_xid_labels_length_mismatch(self, tmp_path):
        repo = make_repo(tmp_path)
        meta_path = tmp_path / "store" / "d1" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["xid_labels"] = [1]  # wrong length
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(RepositoryError):
            repo.load_current("d1")

    def test_missing_xid_labels_falls_back_to_postorder(self, tmp_path):
        repo = make_repo(tmp_path)
        meta_path = tmp_path / "store" / "d1" / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["xid_labels"]
        meta_path.write_text(json.dumps(meta))
        loaded = repo.load_current("d1")
        assert loaded.root.xid is not None  # postorder fallback

    def test_unlabelled_snapshot_rejected_on_store(self, tmp_path):
        repo = DirectoryRepository(tmp_path / "store")
        doc = parse("<a/>")  # no XIDs
        from repro.core import XidAllocator

        with pytest.raises(RepositoryError):
            repo.create("d1", doc, XidAllocator())

    def test_load_missing_delta(self, tmp_path):
        repo = make_repo(tmp_path)
        with pytest.raises(RepositoryError):
            repo.load_delta("d1", 7)


class TestDocIdCollision:
    """``"site/a.html"`` and ``"site_a.html"`` share one key prefix; the
    second id must be refused, never appended to the first id's chain."""

    @pytest.fixture(params=["file", "sqlite", "memory", "shard"])
    def store(self, request, tmp_path):
        if request.param == "memory":
            repository = MemoryRepository()
        else:
            repository = open_repository(
                {
                    "file": f"file://{tmp_path}/store",
                    "sqlite": f"sqlite://{tmp_path}/store.sqlite",
                    "shard": f"shard://{tmp_path}/store?shards=4",
                }[request.param]
            )
        yield VersionStore(repository)
        repository.close()

    def _assert_collision(self, info):
        message = str(info.value)
        assert "'site_a.html'" in message and "'site/a.html'" in message

    def test_colliding_id_is_refused(self, store):
        store.create("site/a.html", parse("<p>one</p>"))
        store.commit("site/a.html", parse("<p>two</p>"))
        before = serialize_bytes(store.get_current("site/a.html"))

        with pytest.raises(RepositoryError) as info:
            store.create("site_a.html", parse("<p>other</p>"))
        self._assert_collision(info)
        with pytest.raises(RepositoryError) as info:
            store.commit("site_a.html", parse("<p>other</p>"))
        self._assert_collision(info)
        with pytest.raises(RepositoryError) as info:
            store.get_current("site_a.html")
        self._assert_collision(info)

        assert store.current_version("site/a.html") == 2
        assert serialize_bytes(store.get_current("site/a.html")) == before
        assert store.document_ids() == ["site/a.html"]


class TestErrorsHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro.xmlkit.errors import (
            ApplyError,
            DeltaError,
            DtdError,
            PathError,
            ReproError,
            RepositoryError,
            XmlParseError,
            XmlSerializeError,
        )

        for error_type in (
            ApplyError,
            DeltaError,
            DtdError,
            PathError,
            RepositoryError,
            XmlParseError,
            XmlSerializeError,
        ):
            assert issubclass(error_type, ReproError)
        # ApplyError is a DeltaError (a delta that does not fit)
        assert issubclass(ApplyError, DeltaError)

    def test_parse_error_location_formatting(self):
        from repro.xmlkit.errors import XmlParseError

        error = XmlParseError("boom", line=3, column=14)
        assert "line 3" in str(error)
        assert "column 14" in str(error)
        assert XmlParseError("x").line is None
        bare = XmlParseError("just line", line=9)
        assert "line 9" in str(bare)
