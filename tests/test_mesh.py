import itertools
import math

import numpy as np
import pytest

import mesh_builder_oracle as oracle
from dumbbell import fem
from dumbbell import mesh as M


def tagged_edges(m, tag):
    """Boundary edges with the tag, read off the Discretization: edge k
    carries it when its midside node, n_vertices + k, is a node of the
    tag's boundary."""
    edges = M.edge_table(m.triangles).edges
    mids = len(m.vertices) + np.arange(len(edges))
    return edges[np.isin(mids, fem.Discretization(m).boundary_nodes(tag))]


def tagged_nodes(m, tag):
    return np.unique(tagged_edges(m, tag).ravel())


def on_arc(p, centers, r_out=12.0):
    """Whether the points p (..., 2) lie on a truncation arc."""
    return np.any([np.abs(np.hypot(p[..., 0] - c, p[..., 1]) - r_out) < 1e-9
                   for c in centers], axis=0)


def dirichlet_off_arc(m, centers):
    """Dirichlet edges that are not on a truncation arc."""
    e = tagged_edges(m, "dirichlet")
    return e[~on_arc(m.vertices[e], centers).all(axis=1)]


def tag_length(m, tag):
    e = tagged_edges(m, tag)
    d = m.vertices[e[:, 1]] - m.vertices[e[:, 0]]
    return np.hypot(d[:, 0], d[:, 1]).sum()


def side_vectors(m):
    """(T, 3, 2) side vectors of each triangle, side k from vertex k."""
    p = m.vertices[m.triangles]
    return np.roll(p, -1, axis=1) - p


def min_edge_per_triangle(m):
    return np.hypot(*np.moveaxis(side_vectors(m), 2, 0)).min(axis=1)


def min_angles(m):
    """Minimum interior angle of each triangle, in degrees."""
    a = side_vectors(m)
    b = -np.roll(a, 1, axis=1)  # from vertex k to vertex k - 1
    cos = (a * b).sum(axis=2) / (np.linalg.norm(a, axis=2)
                                 * np.linalg.norm(b, axis=2))
    return np.degrees(np.arccos(np.clip(cos, -1, 1))).min(axis=1)


def small_dumbbell(**kw):
    args = dict(h0=0.2, eps=0.2, r_out=12.0, levels=0)
    args.update(kw)
    return M.build_dumbbell_mesh(M.MeshConfig(**args))


class TestDumbbellGeometry:
    def test_tube_wall_length(self):
        m = small_dumbbell()
        v = m.vertices
        wall = tagged_edges(m, "dirichlet")
        on_tube = [(a, b) for a, b in wall
                   if abs(v[a, 1] - 0.2) < 1e-13 and abs(v[b, 1] - 0.2) < 1e-13
                   and -1e-13 <= v[a, 0] <= 1 + 1e-13]
        total = sum(float(np.hypot(*(v[b] - v[a]))) for a, b in on_tube)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_dirichlet_edges_on_expected_lines(self):
        m = small_dumbbell()
        v = m.vertices
        eps = 0.2
        for a, b in dirichlet_off_arc(m, centers=(0.0, 1.0)):
            for p in (v[a], v[b]):
                on_left_face = abs(p[0]) < 1e-14 and p[1] >= eps - 1e-14
                on_right_face = abs(p[0] - 1) < 1e-14 and p[1] >= eps - 1e-14
                on_tube = abs(p[1] - eps) < 1e-14 and -1e-14 <= p[0] <= 1 + 1e-14
                assert on_left_face or on_right_face or on_tube

    def test_axis_edges_exact(self):
        m = small_dumbbell()
        nodes = tagged_nodes(m, "axis")
        assert np.all(m.vertices[nodes, 1] == 0.0)
        # axis runs from -r_out to 1 + r_out
        xs = m.vertices[nodes, 0]
        assert xs.min() == pytest.approx(-12.0)
        assert xs.max() == pytest.approx(13.0)

    def test_axis_total_length(self):
        m = small_dumbbell()
        assert tag_length(m, "axis") == pytest.approx(25.0, abs=1e-12)

    def test_corner_vertices_exact(self):
        m = small_dumbbell()
        keys = {(x, r) for x, r in map(tuple, m.vertices)}
        assert (0.0, 0.2) in keys
        assert (1.0, 0.2) in keys

    def test_grading_smallest_element(self):
        m = small_dumbbell(levels=6)
        target = 0.2 * 0.5**6
        smallest = min_edge_per_triangle(m).min()
        assert target / 2 <= smallest <= target * 2

    def test_conforming_and_oriented(self):
        m = small_dumbbell(levels=4)
        assert np.all(m.signed_areas() > 0)
        counts = M.edge_table(m.triangles).counts
        assert np.all((counts == 1) | (counts == 2))

    def test_quality_outside_graded_layers(self):
        m = small_dumbbell(levels=8)
        regular = min_edge_per_triangle(m) >= 0.5 * 0.2
        assert regular.any()
        assert min_angles(m)[regular].min() > 10.0

    def test_rho_nonnegative(self):
        m = small_dumbbell(levels=8)
        assert np.all(m.vertices[:, 1] >= 0.0)

    def test_config_errors(self):
        with pytest.raises(ValueError):
            small_dumbbell(eps=0.6)
        with pytest.raises(ValueError):
            small_dumbbell(r_out=5.0)
        with pytest.raises(ValueError):
            small_dumbbell(eps=None)
        with pytest.raises(ValueError):
            M.build_profile_mesh("NoSuchDomain", M.MeshConfig(h0=0.25))


class TestProfileDomains:
    def test_phihat_inflow_face(self):
        m = M.build_profile_mesh("PhiHatDomain",
                                 M.MeshConfig(h0=0.25, levels=4))
        e = tagged_edges(m, "dirichlet")
        face = e[(np.abs(m.vertices[e, 0] - 10.0) < 1e-12).all(axis=1)]
        assert len(face) > 0
        pts = m.vertices[np.unique(face.ravel())]
        assert pts[:, 1].min() == pytest.approx(0.0, abs=1e-14)
        assert pts[:, 1].max() == pytest.approx(1.0, abs=1e-14)
        d = m.vertices[face[:, 1]] - m.vertices[face[:, 0]]
        assert np.hypot(d[:, 0], d[:, 1]).sum() == pytest.approx(1.0, abs=1e-12)

    def test_phi_domain_tube_truncation(self):
        m = M.build_profile_mesh("PhiDomain",
                                 M.MeshConfig(h0=0.25, levels=4))
        pts = m.vertices[tagged_edges(m, "dirichlet")]
        on_tube_end = (np.abs(pts[..., 0] + 9.0) < 1e-12).all(axis=1)
        arc = on_arc(pts, (1.0,)).all(axis=1)
        # the rest is the tube wall rho = 1 and the wall x1 = 1 above it
        tube_wall = (np.abs(pts[..., 1] - 1.0) < 1e-12).all(axis=1)
        face = ((np.abs(pts[..., 0] - 1.0) < 1e-12)
                & (pts[..., 1] >= 1.0 - 1e-12)).all(axis=1)
        assert np.all(on_tube_end | arc | tube_wall | face)
        assert on_tube_end.any() and arc.any()
        end = pts[on_tube_end]
        assert end[..., 1].min() == pytest.approx(0.0, abs=1e-14)
        assert end[..., 1].max() == pytest.approx(1.0, abs=1e-14)

    def test_halfplus_truncation_arc(self):
        m = M.build_profile_mesh("HalfPlus", M.MeshConfig(h0=0.25))
        pts = m.vertices[tagged_edges(m, "dirichlet")]
        arc = on_arc(pts, (1.0,)).all(axis=1)
        assert arc.any()
        assert np.all(pts[arc][..., 0] >= 1.0 - 1e-13)
        # every other Dirichlet edge is on the wall x1 = 1
        assert np.all(np.abs(pts[~arc][..., 0] - 1.0) < 1e-13)

    def test_halfminus_wall(self):
        m = M.build_profile_mesh("HalfMinus", M.MeshConfig(h0=0.25))
        wall = dirichlet_off_arc(m, centers=(0.0,))
        assert len(wall) > 0
        pts = m.vertices[np.unique(wall.ravel())]
        assert np.all(np.abs(pts[:, 0]) < 1e-13)

    @pytest.mark.parametrize("kind", M.PROFILE_KINDS)
    def test_all_kinds_conforming(self, kind):
        m = M.build_profile_mesh(kind, M.MeshConfig(h0=0.3, levels=3))
        assert np.all(m.signed_areas() > 0)
        assert np.all(np.isin(M.edge_table(m.triangles).counts, (1, 2)))


class TestRefine:
    def test_counts(self):
        m = small_dumbbell(levels=2)
        m1 = M.refine(m)
        m2 = M.refine(m1)
        assert len(m1.triangles) == 4 * len(m.triangles)
        assert len(m2.triangles) == 16 * len(m.triangles)

    def test_vertex_growth_factor(self):
        m = M.build_profile_mesh("PhiDomain", M.MeshConfig(h0=0.3, levels=2))
        n0 = len(m.vertices)
        n1 = len(M.refine(m).vertices)
        n2 = len(M.refine(M.refine(m)).vertices)
        # asymptotically x4 per refinement
        assert 3.5 < n2 / n1 < 4.2
        assert 3.0 < n1 / n0 < 4.5

    def test_tag_arc_lengths_preserved(self):
        m = small_dumbbell(levels=3)
        m1 = M.refine(m)
        for tag in ("axis", "dirichlet"):
            assert tag_length(m1, tag) == pytest.approx(
                tag_length(m, tag), abs=1e-12)

    def test_conformity_after_refine_chain(self):
        m = M.build_profile_mesh("HalfMinus", M.MeshConfig(h0=0.4))
        for _ in range(2):
            m = M.refine(m)
        assert np.all(m.signed_areas() > 0)
        assert np.all(np.isin(M.edge_table(m.triangles).counts, (1, 2)))

    def test_corner_vertices_survive(self):
        m = M.refine(small_dumbbell(levels=2))
        keys = {(x, r) for x, r in map(tuple, m.vertices)}
        assert (0.0, 0.2) in keys and (1.0, 0.2) in keys


# the oracle grid: every eps, h0, r_out and grading depth 0-8 appears
ORACLE_EPS = (0.45, 0.3, 0.1, 0.03, 0.01, 0.004)
ORACLE_H0 = (0.1, 0.15, 0.3)
ORACLE_R_OUT = (8.0, 12.0, 24.0)


def oracle_configs(kind):
    """h0 x eps for the dumbbell, h0 x r_out for the profile domains, with
    the grading depth (and, for the dumbbell, r_out) cycling along."""
    if kind == "dumbbell":
        for n, (h0, eps) in enumerate(itertools.product(ORACLE_H0,
                                                         ORACLE_EPS)):
            yield M.MeshConfig(h0=h0, eps=eps, levels=n % 9,
                               r_out=ORACLE_R_OUT[n // 2 % 3])
    else:
        for n, (h0, r_out) in enumerate(itertools.product(ORACLE_H0,
                                                           ORACLE_R_OUT)):
            yield M.MeshConfig(h0=h0, levels=n, r_out=r_out)


class TestBuilderOracle:
    @pytest.mark.parametrize("kind", ("dumbbell",) + M.PROFILE_KINDS)
    def test_matches_the_cell_by_cell_builder(self, kind):
        for cfg in oracle_configs(kind):
            if kind == "dumbbell":
                got, ref = (M.build_dumbbell_mesh(cfg),
                            oracle.build_dumbbell_mesh(cfg))
            else:
                got, ref = (M.build_profile_mesh(kind, cfg),
                            oracle.build_profile_mesh(kind, cfg))
            for a, b in zip((got.vertices, got.triangles), ref[:2]):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), cfg
            assert got.dimension == cfg.dimension
            # the oracle keeps the finer split of the Dirichlet boundary;
            # its edges, mapped to axis or dirichlet, give the node sets
            edges, tags = ref[2], np.array(ref[3])
            number = {e: k for k, e in enumerate(
                map(tuple, M.edge_table(got.triangles).edges.tolist()))}
            disc = fem.Discretization(got)
            for tag in ("axis", "dirichlet"):
                want = edges[(tags == "axis") == (tag == "axis")]
                mids = [len(got.vertices) + number[e]
                        for e in map(tuple, want.tolist())]
                assert np.array_equal(disc.boundary_nodes(tag), np.unique(
                    np.concatenate([want.ravel(), mids]))), (tag, cfg)


class TestEdgeTable:
    def test_first_appearance_order(self):
        tris = np.array([[0, 1, 2], [2, 1, 3], [3, 4, 2]])
        table = M.edge_table(tris)
        assert table.edges.tolist() == [[0, 1], [1, 2], [0, 2], [1, 3],
                                         [2, 3], [3, 4], [2, 4]]
        assert table.side_edge.tolist() == [[0, 1, 2], [1, 3, 4], [5, 6, 4]]
        assert table.counts.tolist() == [1, 2, 1, 1, 2, 1, 1]

    def test_boundary_edges_match_brute_force(self):
        m = M.build_profile_mesh("HalfMinus", M.MeshConfig(h0=0.6))
        counts = {}
        for tri in m.triangles.tolist():
            for k in range(3):
                key = tuple(sorted((tri[k], tri[(k + 1) % 3])))
                counts[key] = counts.get(key, 0) + 1
        brute = sorted(e for e, c in counts.items() if c == 1)
        table = M.edge_table(m.triangles)
        assert sorted(map(tuple, table.edges[table.counts == 1].tolist())) \
            == brute
        assert dict(zip(map(tuple, table.edges.tolist()),
                        table.counts.tolist())) == counts


def test_non_conforming_blocks_rejected():
    # the unit square split along 0-2, merged with a copy of its first
    # triangle: the diagonal is shared by three triangles
    square = (np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
              np.array([[0, 1, 2], [0, 2, 3]]))
    copy = (square[0][:3], np.array([[0, 1, 2]]))
    assert len(M.refine(M.MeridianMesh(*M._merge([square]), 3)).triangles) == 8
    bad = M.MeridianMesh(*M._merge([square, copy]), 3)
    for use in (M.refine, fem.Discretization):
        with pytest.raises(ValueError, match="shared by >2 triangles"):
            use(bad)


def test_unknown_boundary_tag_rejected():
    disc = fem.Discretization(small_dumbbell())
    with pytest.raises(ValueError, match="unknown boundary tags"):
        disc.boundary_nodes("wall")


def test_immutability():
    m = small_dumbbell()
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 99.0
    # a mesh keeps no cached state: refining it or discretizing it
    # leaves its attributes as they were
    before = dict(vars(m))
    M.refine(m)
    fem.Discretization(m)
    assert vars(m).keys() == before.keys()
    assert all(vars(m)[k] is v for k, v in before.items())
