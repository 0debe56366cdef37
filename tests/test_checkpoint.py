"""SEVX container format: bit-exact round trips and corruption diagnostics."""

import ast
import glob
import hashlib
import os
import re
import signal
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sevx
from sevx.checkpoint import (MAGIC, VERSION, ContainerError, list_from_text, list_to_text,
                             metadata_from_text, metadata_to_text, read_container, read_rows,
                             write_container, write_rows)
from sevx.config import RunConfig
from sevx.model import AAMHead, ModelSpec, SGDOptimizer, build_model, extract_embedding, train_step
from sevx.pipeline import load_checkpoint, save_checkpoint
from sevx.se import SEConfig
from sevx.tensor import Tensor


def sha(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def one_tensor_container(tmp_path):
    """A container holding one (2, 3) tensor "x", and the offset of its name-length field."""
    path = str(tmp_path / "one.sevx")
    meta = "k = v\n"
    write_container(path, meta, [("x", np.ones((2, 3), dtype=np.float32))])
    return path, 4 + 4 + 8 + len(meta)


def patch_u64(path, offset, value):
    data = bytearray(open(path, "rb").read())
    data[offset:offset + 8] = struct.pack("<Q", value)
    with open(path, "wb") as f:
        f.write(data)


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        path = str(tmp_path / "t.sevx")
        rng = np.random.default_rng(0)
        tensors = [
            ("a.weight", rng.normal(size=(3, 4)).astype(np.float32)),
            ("b.bias", rng.normal(size=7).astype(np.float32)),
            ("scalarish", np.array([1.5], dtype=np.float32)),
        ]
        meta = metadata_to_text({"model.embedding_dim": "256", "se.pooling": "mean_std"})
        write_container(path, meta, tensors)
        meta2, loaded = read_container(path)
        assert meta2 == meta
        assert list(loaded) == ["a.weight", "b.bias", "scalarish"]
        for name, arr in tensors:
            assert loaded[name].dtype == np.float32
            assert np.array_equal(loaded[name], arr)
            assert loaded[name].tobytes() == arr.tobytes()

    def test_rewrite_is_byte_identical(self, tmp_path):
        p1, p2 = str(tmp_path / "1.sevx"), str(tmp_path / "2.sevx")
        tensors = [("x", np.arange(6, dtype=np.float32).reshape(2, 3))]
        write_container(p1, "k = v\n", tensors)
        write_container(p2, "k = v\n", tensors)
        assert sha(p1) == sha(p2)

    def test_metadata_text_helpers(self):
        meta = {"a.b": "1", "c": "hello world"}
        assert metadata_from_text(metadata_to_text(meta)) == meta
        assert metadata_from_text("# note\n\n a = 1 \n") == {"a": "1"}
        with pytest.raises(ValueError, match="line 2: expected 'key = value'"):
            metadata_from_text("a = 1\nno pair\n")
        with pytest.raises(ValueError, match="lines 2 and 4: key 'a' set twice"):
            metadata_from_text("# note\na = 1\nb = 2\n a= 3\n")

    @pytest.mark.parametrize("text, parse, items", [
        ("", int, ()), (" ", float, ()), ("3", int, (3,)), ("1, 2", int, (1, 2)),
        ("0.5,0.75", float, (0.5, 0.75))])
    def test_list_text_round_trip(self, text, parse, items):
        assert list_from_text(text, parse) == items
        assert list_from_text(list_to_text(items), parse) == items

    @pytest.mark.parametrize("text", ["1,,2", "1,", ",1", "1,x", "1.5"])
    def test_bad_list_item_rejected(self, text):
        with pytest.raises(ValueError, match="expected a comma list of int values"):
            list_from_text(text, int)

    def test_preserves_nonfinite_payloads_bitwise(self, tmp_path):
        path = str(tmp_path / "nf.sevx")
        arr = np.array([np.inf, -np.inf, 0.0], dtype=np.float32)
        write_container(path, "", [("weird", arr)])
        _, loaded = read_container(path)
        assert loaded["weird"].tobytes() == arr.tobytes()


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.sevx")
        with open(path, "wb") as f:
            f.write(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ContainerError, match="magic"):
            read_container(path)

    def test_bad_version(self, tmp_path):
        path = str(tmp_path / "v9.sevx")
        with open(path, "wb") as f:
            f.write(b"SEVX" + struct.pack("<I", 9) + struct.pack("<Q", 0))
        with pytest.raises(ContainerError, match="version 9"):
            read_container(path)

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = str(tmp_path / "trunc.sevx")
        write_container(path, "", [("x", np.ones(100, dtype=np.float32))])
        data = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(data[:-10])
        with pytest.raises(ContainerError, match="offset"):
            read_container(path)

    def test_truncated_header(self, tmp_path):
        path = str(tmp_path / "th.sevx")
        write_container(path, "meta\n", [])
        with open(path, "ab") as f:
            f.write(b"\x01\x02\x03")  # partial name-length field
        with pytest.raises(ContainerError, match="truncated tensor header"):
            read_container(path)

    # each length field is bounded by the bytes left, before anything is allocated
    @pytest.mark.parametrize("field, delta, value, what", [
        ("name length", 0, 2 ** 62, "tensor name"),
        ("rank", 8 + 1, 2 ** 61, "dims of 'x'"),
        ("first dim", 8 + 1 + 8, 2 ** 40, "payload of 'x'"),
    ])
    def test_corrupt_length_field_reports_offset(self, tmp_path, field, delta, value, what):
        path, name_len_at = one_tensor_container(tmp_path)
        patch_u64(path, name_len_at + delta, value)
        with pytest.raises(ContainerError, match=f"{what} at offset"):
            read_container(path)

    # undecodable text and unallocatable shapes are corrupt artifacts, not usage errors
    @pytest.mark.parametrize("delta, data, what", [
        (-6, b"\xff", "metadata block at offset 16"),
        (8, b"\xff", "tensor name at offset 30"),
        (8 + 1 + 8, struct.pack("<2Q", 0, 2 ** 63), "dims of 'x' at offset 39"),
    ], ids=["metadata utf-8", "name utf-8", "dims 0 x 2^63"])
    def test_corrupt_field_reports_offset(self, tmp_path, delta, data, what):
        path, name_len_at = one_tensor_container(tmp_path)
        raw = bytearray(open(path, "rb").read())
        raw[name_len_at + delta:name_len_at + delta + len(data)] = data
        with open(path, "wb") as f:
            f.write(raw)
        with pytest.raises(ContainerError, match=what):
            read_container(path)

    def test_duplicate_tensor_name_rejected(self, tmp_path):
        path, name_len_at = one_tensor_container(tmp_path)
        data = open(path, "rb").read()
        with open(path, "ab") as f:
            f.write(data[name_len_at:])
        with pytest.raises(ContainerError, match="duplicate tensor name 'x'"):
            read_container(path)


FUZZ_TENSORS = [("conv.weight", np.arange(24, dtype=np.float32).reshape(2, 3, 2, 2)),
                ("bn.gamma", np.ones(3, dtype=np.float32)), ("scalar", np.float32(7.0))]


def fuzz_base():
    """A valid container's bytes, and the offsets of its 8-byte length fields
    (metadata length, then per tensor: name length, rank, each dim)."""
    meta = b"model.scale_factor = 0.125\nse.stages = 1,2\n"
    blob = MAGIC + struct.pack("<IQ", VERSION, len(meta)) + meta
    fields = [8]
    for name, arr in FUZZ_TENSORS:
        arr = np.asarray(arr)
        fields += [len(blob) + 8 * i + len(name) * (i > 0) for i in range(2 + arr.ndim)]
        blob += (struct.pack("<Q", len(name)) + name.encode() + struct.pack("<Q", arr.ndim)
                 + struct.pack(f"<{arr.ndim}Q", *arr.shape) + arr.astype("<f4").tobytes())
    return blob, fields


FUZZ_BLOB, FUZZ_FIELDS = fuzz_base()


@st.composite
def damaged_containers(draw):
    blob = bytearray(FUZZ_BLOB)
    kind = draw(st.sampled_from(["flip", "truncate", "length"]))
    if kind == "flip":
        for at in draw(st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=4)):
            blob[at] ^= draw(st.integers(1, 255))
    elif kind == "truncate":
        del blob[draw(st.integers(0, len(blob) - 1)):]
    else:
        at = draw(st.sampled_from(FUZZ_FIELDS))
        value = draw(st.one_of(st.integers(0, 64), st.integers(0, 2 ** 64 - 1)))
        blob[at:at + 8] = struct.pack("<Q", value)
    return bytes(blob)


class TestFuzz:
    def test_base_container_is_valid(self, tmp_path):
        path = tmp_path / "base.sevx"
        path.write_bytes(FUZZ_BLOB)
        meta, tensors = read_container(str(path))
        assert meta.startswith("model.scale_factor")
        assert list(tensors) == [name for name, _ in FUZZ_TENSORS]
        path.write_bytes(FUZZ_BLOB[:FUZZ_FIELDS[1]])
        assert read_container(str(path)) == (meta, {})

    # byte flips, truncations and overwritten length fields are corrupt artifacts
    @given(blob=damaged_containers())
    @settings(max_examples=400, deadline=None)
    def test_damage_raises_only_container_error(self, tmp_path_factory, blob):
        path = tmp_path_factory.getbasetemp() / "fuzz.sevx"
        path.write_bytes(blob)
        try:
            read_container(str(path))
        except ContainerError:
            pass


class TestLoadCheckpoint:
    SPEC = ModelSpec(scale_factor=1 / 16, num_speakers=4, segment_frames=32)

    def _trained_checkpoint(self, tmp_path):
        model = build_model(self.SPEC, SEConfig(stages=frozenset({1, 2, 3, 4})), seed=5)
        head = AAMHead(4, self.SPEC.embedding_dim, seed=5)
        opt = SGDOptimizer(list(model.named_parameters()) + list(head.named_parameters()))
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 1, 60, 32)).astype(np.float32)
        train_step(model, head, Tensor(x), np.arange(4), opt)
        path = str(tmp_path / "ckpt.sevx")
        save_checkpoint(path, model, head, RunConfig({"seed": "5"}))
        return model, path

    def test_buffers_and_embedding_bit_identical(self, tmp_path):
        model, path = self._trained_checkpoint(tmp_path)
        loaded, _head, _meta = load_checkpoint(path)
        want = dict(model.named_buffers())
        got = dict(loaded.named_buffers())
        assert list(got) == list(want)
        for name, buf in want.items():
            assert got[name].tobytes() == buf.tobytes(), name
        feats = Tensor(np.random.default_rng(3).normal(size=(1, 1, 60, 40)).astype(np.float32))
        assert (extract_embedding(loaded, feats).tobytes()
                == extract_embedding(model, feats).tobytes())

    def test_wrong_size_buffer_names_the_tensor(self, tmp_path):
        _model, path = self._trained_checkpoint(tmp_path)
        meta, tensors = read_container(path)
        name = "stage1.block0.bn1.running_var"
        tensors[name] = np.ones(tensors[name].size + 1, dtype=np.float32)
        write_container(path, meta, tensors.items())
        with pytest.raises(ContainerError, match=name):
            load_checkpoint(path)

    def test_transposed_tensor_is_rejected(self, tmp_path):
        # same value count, wrong layout: loading it would scramble the weights
        _model, path = self._trained_checkpoint(tmp_path)
        meta, tensors = read_container(path)
        weight = tensors["embed.weight"]
        assert weight.shape[0] != weight.shape[1]
        tensors["embed.weight"] = np.ascontiguousarray(weight.T)
        write_container(path, meta, tensors.items())
        with pytest.raises(ContainerError, match=r"'embed.weight' has shape \((\d+), (\d+)\), "
                                                 r"the model expects shape \(\2, \1\)"):
            load_checkpoint(path)

    def test_unexpected_tensor_is_named(self, tmp_path):
        # a checkpoint from before the convs lost their biases holds tensors
        # the model no longer has
        model = build_model(self.SPEC, None, seed=5)
        path = str(tmp_path / "ckpt.sevx")
        save_checkpoint(path, model, AAMHead(4, self.SPEC.embedding_dim, seed=5),
                        RunConfig({"seed": "5"}))
        meta, tensors = read_container(path)
        name = "stage1.block0.conv1.bias"
        tensors[name] = np.zeros(model.stages[0][0].conv1.out_channels, dtype=np.float32)
        write_container(path, meta, tensors.items())
        with pytest.raises(ContainerError, match=f"unexpected.*{name}"):
            load_checkpoint(path)

    def test_metadata_line_without_equals_is_rejected(self, tmp_path):
        _model, path = self._trained_checkpoint(tmp_path)
        meta, tensors = read_container(path)
        write_container(path, meta + "stray line\n", tensors.items())
        lineno = meta.count("\n") + 1
        with pytest.raises(ContainerError, match=f"corrupt metadata: line {lineno}:"):
            load_checkpoint(path)

    def test_metadata_with_a_repeated_key_is_rejected(self, tmp_path):
        _model, path = self._trained_checkpoint(tmp_path)
        meta, tensors = read_container(path)
        write_container(path, meta + "seed = 6\n", tensors.items())
        first = meta.splitlines().index("seed = 5") + 1
        lineno = meta.count("\n") + 1
        with pytest.raises(ContainerError,
                           match=f"corrupt metadata: lines {first} and {lineno}: key 'seed'"):
            load_checkpoint(path)


HEADER_KEYS = (list(ModelSpec().to_metadata()) + list(SEConfig().to_metadata())
               + ["head.scale", "head.margin", "seed"])


@st.composite
def header_edits(draw):
    """(key, text): one checkpoint header value replaced by small numbers,
    comma lists, blank or non-numeric text."""
    key = draw(st.sampled_from(HEADER_KEYS))
    # load_checkpoint builds the model before it checks the tensors, and a
    # scale factor of 1 or more builds a paper-size model or larger
    ints = st.integers(-2, 0 if key == "model.scale_factor" else 4)
    text = draw(st.one_of(
        ints.map(str), st.lists(ints, min_size=1, max_size=5).map(list_to_text),
        st.floats(-1, 0.25).map(repr),
        st.sampled_from(["", " ", "nan", "inf", "-inf", "1,", ",", "1,,2", "mean"]),
        st.text(alphabet="abxyz_-.,", max_size=6)))
    return key, text


@pytest.fixture(scope="module")
def header_base(tmp_path_factory):
    """Metadata and tensors of a valid scale-1/16 checkpoint."""
    path = str(tmp_path_factory.mktemp("header") / "base.sevx")
    spec = ModelSpec(scale_factor=1 / 16, num_speakers=3)
    save_checkpoint(path, build_model(spec, SEConfig(), seed=1),
                    AAMHead(3, spec.embedding_dim, seed=1), RunConfig())
    meta, tensors = read_container(path)
    return metadata_from_text(meta), tensors


class TestHeaderFuzz:
    @given(edit=header_edits())
    @example(edit=("model.stage_strides", "1,0,2,2"))
    @settings(max_examples=150, deadline=None)
    def test_header_value_loads_or_raises_container_error(self, tmp_path_factory,
                                                          header_base, edit):
        meta, tensors = header_base
        key, text = edit
        path = str(tmp_path_factory.getbasetemp() / "header-fuzz.sevx")
        write_container(path, metadata_to_text({**meta, key: text}), tensors.items())
        try:
            load_checkpoint(path)
        except ContainerError:
            pass


class TestAtomicWrites:
    """An interrupted write leaves the previous file whole."""

    def _good(self, tmp_path):
        path = str(tmp_path / "ckpt.sevx")
        write_container(path, "k = old\n", [("w", np.arange(6, dtype=np.float32))])
        with open(path, "rb") as f:
            return path, f.read()

    def test_exception_mid_write_keeps_old_file_and_no_sibling(self, tmp_path):
        path, before = self._good(tmp_path)

        def tensors():
            yield "a", np.ones(4, dtype=np.float32)
            raise RuntimeError("producer failed")

        with pytest.raises(RuntimeError, match="producer failed"):
            write_container(path, "k = new\n", tensors())
        with open(path, "rb") as f:
            assert f.read() == before
        assert os.listdir(tmp_path) == ["ckpt.sevx"]

    def test_sigkill_mid_write_keeps_old_file_loadable(self, tmp_path):
        path, before = self._good(tmp_path)
        child = (
            "import os, signal, sys\n"
            "import numpy as np\n"
            "from sevx.checkpoint import write_container\n"
            "def tensors():\n"
            "    yield 'a', np.ones(1 << 16, dtype=np.float32)\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
            "    yield 'b', np.ones(4, dtype=np.float32)\n"
            "write_container(sys.argv[1], 'k = new\\n', tensors())\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(sevx.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", child, path], env=env, timeout=120)
        assert proc.returncode == -signal.SIGKILL
        with open(path, "rb") as f:
            assert f.read() == before
        meta, tensors = read_container(path)
        assert meta == "k = old\n" and list(tensors) == ["w"]
        assert len(glob.glob(f"{path}.*.tmp")) == 1


class TestReadRows:
    def test_write_rows_replaces_whole_and_reads_back(self, tmp_path):
        path = str(tmp_path / "t.tsv")
        write_rows(path, [("old", 1)])
        write_rows(path, [("a", 1, "x y"), ("b", 2.5, "z")])
        with open(path, encoding="utf-8") as f:
            assert f.read() == "a\t1\tx y\nb\t2.5\tz\n"
        assert read_rows(path, 3, lambda *fields: fields) == [("a", "1", "x y"), ("b", "2.5", "z")]

    def test_blank_lines_skipped_and_last_field_keeps_whitespace(self, tmp_path):
        path = str(tmp_path / "m.tsv")
        with open(path, "w", encoding="utf-8") as f:
            f.write("\nu1\tspk1\t/data/my corpus/u1.wav\n   \nu2 spk2  p2 \n")
        assert read_rows(path, 3, lambda *fields: fields) == [
            ("u1", "spk1", "/data/my corpus/u1.wav"), ("u2", "spk2", "p2")]

    def test_short_line_and_parse_error_name_file_and_line(self, tmp_path):
        path = str(tmp_path / "r.tsv")
        with open(path, "w", encoding="utf-8") as f:
            f.write("1 2\n\n3\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:3: expected 2 fields, got 1")):
            read_rows(path, 2, lambda a, b: (a, b))
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:1: invalid literal")):
            read_rows(path, 2, lambda a, b: int(a + "x"))


def write_mode_calls(source: str):
    """Lines of ``open(...)``/``wave.open(...)`` calls in ``source`` whose mode
    may write (a ``w``, ``a``, ``x`` or ``+`` in it, or a mode that is not a
    constant), other than those inside ``replaced_atomically`` and those on a
    file object bound by ``with replaced_atomically(...) as name``."""
    tree = ast.parse(source)
    exempt, atomic_names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "replaced_atomically":
            exempt.update(id(n) for n in ast.walk(node))
        if isinstance(node, ast.withitem) and isinstance(node.optional_vars, ast.Name) \
                and isinstance(node.context_expr, ast.Call) \
                and getattr(node.context_expr.func, "id", None) == "replaced_atomically":
            atomic_names.add(node.optional_vars.id)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        func = node.func
        if not (isinstance(func, ast.Name) and func.id == "open"
                or isinstance(func, ast.Attribute) and func.attr == "open"):
            continue
        mode = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
        writes = not isinstance(mode, ast.Constant) or any(c in mode.value for c in "wax+")
        on_atomic = node.args and isinstance(node.args[0], ast.Name) \
            and node.args[0].id in atomic_names
        if writes and not on_atomic:
            found.append(node.lineno)
    return found


class TestWritePolicy:
    def test_only_the_atomic_writer_opens_files_for_writing(self):
        package = os.path.dirname(os.path.abspath(sevx.__file__))
        sites = []
        for path in sorted(glob.glob(os.path.join(package, "*.py"))):
            with open(path, encoding="utf-8") as f:
                sites += [f"{os.path.basename(path)}:{line}" for line in write_mode_calls(f.read())]
        assert sites == [], f"write outside checkpoint.replaced_atomically: {sites}"

    @pytest.mark.parametrize("source, lines", [
        ("open(p, 'w')", [1]),
        ("open(p, mode='ab')", [1]),
        ("wave.open(p, 'wb')", [1]),
        ("open(p, 'r+')", [1]),
        ("open(p, m)", [1]),
        ("open(p)\nopen(p, 'rb')\nwave.open(p, 'rb')", []),
        ("with replaced_atomically(p, binary=True) as f, wave.open(f, 'wb') as w:\n    pass", []),
    ])
    def test_policy_checker(self, source, lines):
        assert write_mode_calls(source) == lines
