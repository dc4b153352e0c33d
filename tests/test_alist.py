import pytest

from ldpcbounds import (AlistParseError, DegreeDistribution, EnsembleSpec,
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
