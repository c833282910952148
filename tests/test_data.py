import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from blockprec import (
    Dataset,
    InvalidArgumentError,
    LibsvmParseError,
    Partitioning,
    block_mask,
    build_report,
    factor_sqrt,
    gen_labels,
    gen_random_corr_q,
    gen_separable_q,
    gen_uniform_q,
    load_q,
    read_libsvm,
    save_q,
    write_libsvm,
)


class TestUniformQ:
    def test_four_by_four_display(self):
        alpha = 0.3
        q = gen_uniform_q(4, alpha)
        expected = np.array([
            [1.0, alpha, alpha, alpha],
            [alpha, 1.0, alpha, alpha],
            [alpha, alpha, 1.0, alpha],
            [alpha, alpha, alpha, 1.0],
        ])
        np.testing.assert_array_equal(q, expected)

    def test_alpha_zero_identity(self):
        np.testing.assert_array_equal(gen_uniform_q(5, 0.0), np.eye(5))

    def test_eigenvalues(self):
        n, alpha = 9, 0.45
        w = np.linalg.eigvalsh(gen_uniform_q(n, alpha))
        np.testing.assert_allclose(w[:-1], np.full(n - 1, 1.0 - alpha), atol=1e-12)
        assert w[-1] == pytest.approx(1.0 + (n - 1) * alpha, abs=1e-12)

    def test_alpha_range_checked(self):
        with pytest.raises(InvalidArgumentError):
            gen_uniform_q(4, 1.0)
        with pytest.raises(InvalidArgumentError):
            gen_uniform_q(4, -0.1)


class TestSeparableQ:
    def test_four_by_four_display(self):
        alpha = 0.6
        q = gen_separable_q(4, 2, alpha)
        expected = np.array([
            [1.0, alpha, 0.0, 0.0],
            [alpha, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, alpha],
            [0.0, 0.0, alpha, 1.0],
        ])
        np.testing.assert_array_equal(q, expected)

    def test_alpha_zero_identity(self):
        np.testing.assert_array_equal(gen_separable_q(6, 3, 0.0), np.eye(6))

    def test_aligned_mask_is_identity_operation(self):
        q = gen_separable_q(8, 4, 0.5)
        part = Partitioning(np.repeat(np.arange(4), 2), 4)
        np.testing.assert_array_equal(block_mask(q, part), q)

    def test_k_must_divide_n(self):
        with pytest.raises(InvalidArgumentError):
            gen_separable_q(7, 2, 0.1)


class TestRandomCorrQ:
    def test_reproducible(self):
        a = gen_random_corr_q(30, 0.2, seed=5)
        b = gen_random_corr_q(30, 0.2, seed=5)
        np.testing.assert_array_equal(a, b)
        c = gen_random_corr_q(30, 0.2, seed=6)
        assert not np.array_equal(a, c)

    def test_spd_and_unit_diagonal(self):
        for alpha in (0.05, 0.3, 0.8):
            q = gen_random_corr_q(40, alpha, seed=1)
            assert np.linalg.eigvalsh(q)[0] > 0.0
            np.testing.assert_allclose(np.diag(q), 1.0, atol=1e-12)

    def test_alpha_positive_required(self):
        with pytest.raises(InvalidArgumentError):
            gen_random_corr_q(10, 0.0, seed=0)

    @pytest.mark.slow
    def test_repartitioning_beats_every_sampled_partitioning(self):
        # the qualitative gap: the expected-inverse eigenvalue exceeds the
        # best of 1000 sampled static partitionings
        q = gen_random_corr_q(200, 0.05, seed=7)
        report = build_report(q, 5, n_samples=1000, seed=3)
        assert report.lambda_min_expected > report.lambdas.max()


def test_every_generator_output_is_valid_spd():
    from blockprec import check_symmetric_matrix
    outputs = [
        gen_uniform_q(11, 0.35),
        gen_separable_q(12, 4, 0.6),
        gen_random_corr_q(25, 0.4, seed=2),
    ]
    for q in outputs:
        check_symmetric_matrix(q)
        assert np.linalg.eigvalsh(q)[0] > 0.0


class TestFactorSqrt:
    def test_identity(self):
        np.testing.assert_allclose(factor_sqrt(np.eye(4)), np.eye(4), atol=1e-12)

    def test_scaled_identity(self):
        np.testing.assert_allclose(factor_sqrt(4.0 * np.eye(3)), 2.0 * np.eye(3),
                                   atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((10, 20))
        q = g @ g.T / 20 + 0.1 * np.eye(10)
        a = factor_sqrt(q)
        assert np.max(np.abs(a.T @ a - q)) <= 1e-8

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidArgumentError):
            factor_sqrt(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestLibsvm:
    def test_basic_line(self, tmp_path):
        path = tmp_path / "tiny.libsvm"
        path.write_text("+1 1:0.5 3:2.0\n")
        ds = read_libsvm(path)
        assert ds.y.tolist() == [1.0]
        np.testing.assert_array_equal(ds.a.toarray(), [[0.5, 0.0, 2.0]])

    def test_empty_feature_list(self, tmp_path):
        path = tmp_path / "tiny.libsvm"
        path.write_text("+1 2:1.0\n-1\n")
        ds = read_libsvm(path)
        np.testing.assert_array_equal(ds.a.toarray(), [[0.0, 1.0], [0.0, 0.0]])
        assert ds.y.tolist() == [1.0, -1.0]

    def test_malformed_entry_reports_line(self, tmp_path):
        path = tmp_path / "bad.libsvm"
        path.write_text("+1 1:0.5\n-1 2:oops\n")
        with pytest.raises(LibsvmParseError) as excinfo:
            read_libsvm(path)
        assert excinfo.value.lineno == 2

    def test_index_beyond_int64_reports_line(self, tmp_path):
        path = tmp_path / "bad.libsvm"
        path.write_text("+1 1:0.5\n1 99999999999999999999:1\n")
        with pytest.raises(LibsvmParseError, match="bad feature entry") as excinfo:
            read_libsvm(path)
        assert excinfo.value.lineno == 2

    # Labels +1/-1, values written with 17 significant digits.
    LINE_FORMS = {
        "crlf": "+1 1:{0} 3:{1}\r\n-1 2:{2}\r\n",
        "lone_cr": "+1 1:{0} 3:{1}\r-1 2:{2}\r",
        "blank_lines": "\n+1 1:{0} 3:{1}\n\n\n-1 2:{2}\n\n",
        "whitespace_only_lines": " \t\n+1 1:{0} 3:{1}\n   \n-1 2:{2}\n\t\n",
        "unsigned_label": "1 1:{0} 3:{1}\n-1 2:{2}",
        "leading_zero_indices": "+1 01:{0} 003:{1}\n-1 0002:{2}\n",
    }

    @pytest.mark.parametrize("form", LINE_FORMS)
    def test_line_forms_give_the_same_arrays(self, tmp_path, form):
        values = [0.1, -np.e, np.pi / 3]
        path = tmp_path / "forms.libsvm"
        path.write_bytes(self.LINE_FORMS[form].format(*(f"{v:.17g}" for v in values)).encode())
        ds = read_libsvm(path)
        assert ds.a.shape == (2, 3)
        assert ds.a.data.tolist() == values
        assert ds.a.indices.tolist() == [0, 2, 1]
        assert ds.a.indptr.tolist() == [0, 2, 3]
        assert ds.y.tolist() == [1.0, -1.0]

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_error_line_counts_blank_lines(self, tmp_path, newline):
        path = tmp_path / "bad.libsvm"
        path.write_bytes(newline.join(["+1 1:1", " ", "-1 2:oops", ""]).encode())
        with pytest.raises(LibsvmParseError) as excinfo:
            read_libsvm(path)
        assert excinfo.value.lineno == 3

    def test_reading_memory_per_stored_entry(self, tmp_path):
        # 5000 rows of 8 one-hot groups. Typed arrays peak at about 24 bytes per
        # stored entry (values, int64 indices, scipy's int32 index copy); a reader
        # that holds a Python float object per entry peaks at about 72.
        rng = np.random.default_rng(0)
        cols = 1 + 10 * np.arange(8) + rng.integers(0, 10, size=(5000, 8))
        path = tmp_path / "onehot.libsvm"
        path.write_text("".join(f"{(-1) ** r:+d} " + " ".join(f"{c}:1" for c in row) + "\n"
                                for r, row in enumerate(cols.tolist())))
        tracemalloc.start()
        try:
            ds = read_libsvm(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.a.nnz == cols.size
        assert peak < 32 * ds.a.nnz

    def test_non_increasing_indices_rejected(self, tmp_path):
        path = tmp_path / "bad.libsvm"
        path.write_text("+1 3:1.0 2:1.0\n")
        with pytest.raises(LibsvmParseError):
            read_libsvm(path)
        path.write_text("+1 0:1.0\n")
        with pytest.raises(LibsvmParseError):
            read_libsvm(path)

    def test_n_features_override(self, tmp_path):
        path = tmp_path / "tiny.libsvm"
        path.write_text("+1 2:1.0\n")
        assert read_libsvm(path, n_features=10).n_features == 10
        with pytest.raises(InvalidArgumentError):
            read_libsvm(path, n_features=1)

    @pytest.mark.parametrize("raw,expected", [((0.0, 1.0), (-1.0, 1.0)),
                                              ((1.0, 2.0), (-1.0, 1.0)),
                                              ((-1.0, 1.0), (-1.0, 1.0))])
    def test_logistic_label_remap(self, tmp_path, raw, expected):
        path = tmp_path / "tiny.libsvm"
        path.write_text(f"{raw[0]:g} 1:1.0\n{raw[1]:g} 1:2.0\n")
        ds = read_libsvm(path, logistic_labels=True)
        assert ds.y.tolist() == list(expected)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((12, 7)) * np.pi
        dense[rng.random((12, 7)) < 0.5] = 0.0
        ds = Dataset(scipy.sparse.csr_matrix(dense), rng.standard_normal(12))
        first = tmp_path / "one.libsvm"
        second = tmp_path / "two.libsvm"
        write_libsvm(first, ds)
        back = read_libsvm(first, n_features=7)
        write_libsvm(second, back)
        assert first.read_bytes() == second.read_bytes()
        np.testing.assert_array_equal(back.a.toarray(), dense)
        np.testing.assert_array_equal(back.y, ds.y)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(np.array([[np.inf]]), np.array([1.0]))


class TestNormalizeColumns:
    def test_unit_norms_dense_and_sparse(self):
        from blockprec import normalize_columns
        rng = np.random.default_rng(8)
        dense = rng.standard_normal((9, 5))
        dense[:, 3] = 0.0
        for rep in (dense, scipy.sparse.csr_matrix(dense)):
            out = normalize_columns(Dataset(rep, np.zeros(9)))
            a = out.a.toarray() if scipy.sparse.issparse(out.a) else out.a
            norms = np.linalg.norm(a, axis=0)
            np.testing.assert_allclose(norms[[0, 1, 2, 4]], 1.0, atol=1e-12)
            assert norms[3] == 0.0

    def test_sparse_matches_column_scaling_product(self):
        # Bit for bit what A @ diag(1 / norm) gives, on non-integer values
        from blockprec import normalize_columns
        rng = np.random.default_rng(10)
        dense = rng.standard_normal((3000, 40)) * np.pi
        dense[rng.random(dense.shape) < 0.7] = 0.0
        dense[:, 5] = 0.0
        columns = scipy.sparse.csc_matrix(dense)
        norms = np.sqrt(np.asarray(columns.multiply(columns).sum(axis=0)).ravel())
        want = (columns @ scipy.sparse.diags(1.0 / np.where(norms > 0.0, norms, 1.0))).toarray()
        out = normalize_columns(Dataset(scipy.sparse.csr_matrix(dense), np.zeros(3000)))
        assert out.a.format == "csr"
        np.testing.assert_array_equal(out.a.toarray(), want)

    def test_original_untouched(self):
        from blockprec import normalize_columns
        rng = np.random.default_rng(9)
        dense = rng.standard_normal((4, 3))
        ds = Dataset(dense, np.zeros(4))
        normalize_columns(ds)
        np.testing.assert_array_equal(ds.a, dense)


class TestLabels:
    def test_gaussian_reproducible(self):
        a = np.zeros((6, 2))
        x = gen_labels(a, seed=4)
        y = gen_labels(a, seed=4)
        np.testing.assert_array_equal(x, y)
        assert x.shape == (6,)


class TestQBinaryFormat:
    def test_round_trip_with_metadata(self, tmp_path):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((9, 18))
        q = g @ g.T / 18
        path = tmp_path / "m.q"
        save_q(path, q, {"kind": "test", "alpha": 0.5})
        back, meta = load_q(path)
        np.testing.assert_array_equal(back, q)
        assert meta["kind"] == "test"
        assert meta["n"] == 9

    def test_save_is_deterministic(self, tmp_path):
        q = gen_uniform_q(5, 0.2)
        one, two = tmp_path / "a.q", tmp_path / "b.q"
        save_q(one, q, {"kind": "uniform"})
        save_q(two, q, {"kind": "uniform"})
        assert one.read_bytes() == two.read_bytes()
        assert (tmp_path / "a.q.json").read_bytes() == (tmp_path / "b.q.json").read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.q"
        path.write_bytes(b"NOPE" + b"\0" * 12)
        with pytest.raises(LibsvmParseError):
            load_q(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "trunc.q"
        save_q(path, gen_uniform_q(4, 0.1))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(LibsvmParseError):
            load_q(path)
