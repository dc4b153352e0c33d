import hashlib

import pytest

from ldpcbounds import (AlistParseError, DegreeDistribution, EnsembleSpec, TannerGraph,
                        load_alist, peg_construct, sample_graph, save_alist)


def test_roundtrip_sampled_graph(tmp_path, spec34_900):
    g = sample_graph(spec34_900, 8)
    path = tmp_path / "code.alist"
    save_alist(g, path)
    assert load_alist(path) == g


def test_roundtrip_irregular(tmp_path):
    spec = EnsembleSpec(60, DegreeDistribution({2: 0.5, 3: 0.5}),
                        DegreeDistribution({4: 0.5, 6: 0.5}))
    g = sample_graph(spec, 4)
    path = tmp_path / "irr.alist"
    save_alist(g, path)
    assert load_alist(path) == g


def test_roundtrip_peg(tmp_path):
    g = peg_construct(24, [3] * 24, 18)
    path = tmp_path / "peg.alist"
    save_alist(g, path)
    assert load_alist(path) == g


def test_roundtrip_edgeless(tmp_path):
    # Every adjacency row is padded to one 0, so no row is a blank line.
    g = TannerGraph(2, 1, [])
    path = tmp_path / "empty.alist"
    save_alist(g, path)
    assert path.read_text() == "2 1\n0 0\n0 0\n0\n0\n0\n0\n"
    assert load_alist(path) == g


@pytest.mark.parametrize("make, digest", [
    (lambda: peg_construct(900, [3] * 900, 675),
     "bbe389064041fc6db16146da7d7bbe24ad3c917a17a0d97fb4b121dc533a707d"),
    (lambda: sample_graph(EnsembleSpec(60, DegreeDistribution({2: 0.5, 3: 0.5}),
                                       DegreeDistribution({4: 0.5, 6: 0.5})), 4),
     "c91d059b9cac78b589fd92c5be8d90e71378289c75e009a4ff5d8e8bbab22d02"),
    (lambda: TannerGraph(3, 2, [(0, 1)]),
     "86299c1fd92daac32ba46d964834c1720f1411e43d64dd4533e8c8952ef5b51f"),
], ids=["peg-3-4-900", "irregular-60", "isolated-nodes"])
def test_saved_bytes_pinned(tmp_path, make, digest):
    path = tmp_path / "code.alist"
    save_alist(make(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_handwritten_two_variable_graph(tmp_path):
    path = tmp_path / "tiny.alist"
    path.write_text("2 1\n1 2\n1 1\n2\n1\n1\n1 2\n")
    g = load_alist(path)
    assert g.n_vars == 2 and g.n_checks == 1 and g.n_edges == 2
    assert sorted(g.check_neighbors(0)) == [0, 1]


def test_zero_padding_ignored(tmp_path):
    path = tmp_path / "pad.alist"
    path.write_text("2 1\n1 2\n1 1\n2\n1 0\n1 0\n1 2\n")
    g = load_alist(path)
    assert g.n_edges == 2


def test_out_of_range_index_reports_line(tmp_path):
    path = tmp_path / "bad.alist"
    path.write_text("4 2\n1 2\n1 1 1 1\n2 2\n1\n1\n2\n2\n1 5\n3 4\n")
    with pytest.raises(AlistParseError) as err:
        load_alist(path)
    assert err.value.line == 9
    assert "out of range" in str(err.value)


def test_parallel_edge_rejected(tmp_path):
    path = tmp_path / "par.alist"
    path.write_text("2 1\n2 2\n2 0\n2\n1 1\n0\n1 1\n")
    with pytest.raises(AlistParseError) as err:
        load_alist(path)
    assert "parallel" in str(err.value)


def test_degree_mismatch_rejected(tmp_path):
    path = tmp_path / "deg.alist"
    path.write_text("2 1\n1 2\n1 1\n2\n1\n1\n1 0\n")
    with pytest.raises(AlistParseError) as err:
        load_alist(path)
    assert err.value.line == 7


@pytest.mark.parametrize("line2", ["5 7", "1 1", "2 2", "-1 2"])
def test_maximum_degrees_must_match_degree_lines(tmp_path, line2):
    # Line 2 must be the largest entry of line 3 and of line 4, here "1 2".
    path = tmp_path / "max.alist"
    path.write_text(f"2 1\n{line2}\n1 1\n2\n1\n1\n1 2\n")
    with pytest.raises(AlistParseError, match="maximum degrees") as err:
        load_alist(path)
    assert err.value.line == 2


def test_inconsistent_halves_rejected(tmp_path):
    path = tmp_path / "half.alist"
    path.write_text("2 2\n1 1\n1 1\n1 1\n1\n2\n2\n1\n")
    with pytest.raises(AlistParseError) as err:
        load_alist(path)
    assert "disagree" in str(err.value)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "short.alist"
    path.write_text("2 1\n1 2\n")
    with pytest.raises(AlistParseError):
        load_alist(path)


def test_non_ascii_file_rejected(tmp_path):
    path = tmp_path / "binary.alist"
    path.write_bytes(b"2 1\n\xff\xfe\n")
    with pytest.raises(AlistParseError, match="not ASCII"):
        load_alist(path)
