import numpy as np
import pytest

from repro.core.transient import TransientHeatSolver
from repro.graph.adjacency import graph_from_elements
from repro.graph.geometric import box_partition_2d
from repro.graph.partitioner import partition_graph
from repro.mesh.grid2d import structured_rectangle
from repro.mesh.grid3d import structured_box
from repro.mesh.unstructured import plate_with_hole


@pytest.fixture(scope="module")
def solver():
    mesh = structured_rectangle(13, 13)
    return TransientHeatSolver(
        mesh,
        dt=0.02,
        dirichlet_nodes=mesh.all_boundary_nodes(),
        precond="schur1",
        nparts=3,
    ), mesh


class TestTransientHeatSolver:
    def test_advance_decays_heat(self, solver):
        ths, mesh = solver
        u0 = np.sin(np.pi * mesh.points[:, 0]) * np.sin(np.pi * mesh.points[:, 1])
        u = ths.advance(u0, steps=5)
        assert np.abs(u).max() < np.abs(u0).max()
        assert len(ths.history) >= 5

    def test_decay_rate_matches_analytics(self):
        mesh = structured_rectangle(21, 21)
        dt = 0.01
        ths = TransientHeatSolver(
            mesh, dt=dt, dirichlet_nodes=mesh.all_boundary_nodes(),
            precond="block2", nparts=2,
        )
        u0 = np.sin(np.pi * mesh.points[:, 0]) * np.sin(np.pi * mesh.points[:, 1])
        u1 = ths.advance(u0, steps=1)
        ratio = u1.max() / u0.max()
        assert ratio == pytest.approx(1.0 / (1.0 + 2 * np.pi**2 * dt), rel=0.05)

    def test_history_records_iterations(self, solver):
        ths, mesh = solver
        before = len(ths.history)
        u0 = np.sin(np.pi * mesh.points[:, 0]) * np.sin(np.pi * mesh.points[:, 1])
        ths.advance(u0, steps=2)
        assert len(ths.history) == before + 2
        assert all(rec.converged for rec in ths.history)
        assert ths.total_iterations >= len(ths.history)

    def test_preconditioner_iterations_stable_across_steps(self, solver):
        ths, mesh = solver
        u0 = np.sin(np.pi * mesh.points[:, 0]) * np.sin(np.pi * mesh.points[:, 1])
        ths.advance(u0, steps=4)
        iters = [rec.iterations for rec in ths.history[-4:]]
        assert max(iters) - min(iters) <= 3  # same operator every step

    def test_ledger_accumulates_across_steps(self, solver):
        ths, mesh = solver
        flops_before = ths.comm.ledger.crit_flops
        u0 = np.ones(mesh.num_points)
        u0[mesh.all_boundary_nodes()] = 0.0
        ths.advance(u0, steps=1)
        assert ths.comm.ledger.crit_flops > flops_before

    def test_3d_mesh_supported(self):
        mesh = structured_box(7, 7, 7)
        ths = TransientHeatSolver(
            mesh, dt=0.05, dirichlet_nodes=mesh.boundary_set("right"),
            precond="block1", nparts=2,
        )
        u0 = np.sin(np.pi * mesh.points[:, 0]) * np.sin(np.pi * mesh.points[:, 1])
        u0[mesh.boundary_set("right")] = 0.0
        u = ths.advance(u0, steps=2)
        assert np.all(np.isfinite(u))
        assert np.abs(u[mesh.boundary_set("right")]).max() < 1e-10

    def test_box_scheme(self):
        mesh = structured_rectangle(9, 9)
        ths = TransientHeatSolver(
            mesh, dt=0.02, dirichlet_nodes=mesh.all_boundary_nodes(),
            precond="block2", nparts=4, scheme="box",
        )
        u = ths.advance(np.ones(mesh.num_points), steps=1)
        assert np.all(np.isfinite(u))

    def test_general_membership_is_graph_partition(self):
        # the march partitions the element graph with the same multilevel
        # partitioner and seed as a steady solve of the same mesh
        mesh = structured_rectangle(11, 11)
        ths = TransientHeatSolver(
            mesh, dt=0.02, dirichlet_nodes=mesh.all_boundary_nodes(),
            precond="block1", nparts=3, seed=5,
        )
        want = partition_graph(
            graph_from_elements(mesh.num_points, mesh.elements), 3, seed=5
        )
        assert np.array_equal(ths.membership, want)

    def test_box_membership_is_geometric_boxes(self):
        mesh = structured_rectangle(9, 9)
        ths = TransientHeatSolver(
            mesh, dt=0.02, dirichlet_nodes=mesh.all_boundary_nodes(),
            precond="block1", nparts=4, scheme="box",
        )
        assert np.array_equal(ths.membership, box_partition_2d(9, 9, 4))

    def test_box_scheme_rejects_unstructured_mesh(self):
        mesh = plate_with_hole(target_h=0.2)
        with pytest.raises(ValueError, match="structured grid"):
            TransientHeatSolver(
                mesh, dt=0.02, dirichlet_nodes=np.array([0]), scheme="box",
            )

    def test_unknown_scheme_raises(self):
        mesh = structured_rectangle(7, 7)
        with pytest.raises(ValueError):
            TransientHeatSolver(
                mesh, dt=0.02, dirichlet_nodes=mesh.all_boundary_nodes(),
                scheme="spiral",
            )
