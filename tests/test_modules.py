import numpy as np
import pytest

from syzkit.errors import HomogeneityError, SyzkitError
from syzkit.freemod import FreeMap
from syzkit.modules import (
    GradedModule,
    ModuleMap,
    free_module,
    lift_presentation,
    module_from_strings,
    residue_field,
    tensor_presentation,
    verify_ses,
)
from syzkit.rings import ring_from_strings


def ci_ring(p=2):
    return ring_from_strings(p, ["x", "y"], ["x^2", "y^2"])


def xy_ring():
    return ring_from_strings(3, ["x", "y"], ["x*y"])


def test_residue_field_dims():
    k = residue_field(ci_ring())
    assert k.dims(4) == [1, 0, 0, 0, 0]
    assert not k.is_zero()


def test_free_module_dims_match_ring():
    r = ci_ring()
    f = free_module(r)
    assert f.dims(4) == r.hilbert_function(4)


def test_quotient_by_x_over_hypersurface():
    r = xy_ring()
    m = module_from_strings(r, [0], [["x"]])
    assert m.dims(5) == [1, 1, 1, 1, 1, 1]  # basis y^d


def test_inhomogeneous_relation_rejected():
    r = ci_ring()
    with pytest.raises(HomogeneityError):
        module_from_strings(r, [0, 1], [["x", "x"]])


def test_a_vector_of_the_wrong_length_is_refused():
    # R_1 of F_3[x,y]/(xy) has dimension 2: a degree-1 relation, or the
    # image of a degree-1 generator, on one generator in degree 0 has two
    # coordinates
    r = xy_ring()
    three = np.array([1, 0, 0], dtype=np.int64)
    with pytest.raises(SyzkitError, match="length 3, expected 2"):
        GradedModule(r, (0,), [(1, three)])
    with pytest.raises(SyzkitError, match="length 3, expected 2"):
        ModuleMap(free_module(r, (1,)), free_module(r), FreeMap(r, (1,), (0,), [three]))
    with pytest.raises(SyzkitError, match="length 3, expected 2"):
        FreeMap(r, (1,), (0,), [three])


def test_a_module_map_needs_a_free_map_between_its_generators():
    r = xy_ring()
    with pytest.raises(SyzkitError, match="between the modules' generators"):
        ModuleMap(free_module(r, (1,)), free_module(r), FreeMap.zero(r, (0,), (0,)))


def test_minimal_generators_of_socle_heavy_module():
    r = ci_ring()
    k = residue_field(r)
    gens = k.minimal_generators()
    assert [d for d, _ in gens] == [0]
    f = free_module(r, [0, 1])
    assert [d for d, _ in f.minimal_generators()] == [0, 1]


def test_lift_presentation_examples():
    r = xy_ring()
    k = residue_field(r)
    lk = lift_presentation(k)
    assert lk.dims(3) == k.dims(3)

    free = free_module(r)
    lifted = lift_presentation(free)  # S/(xy)
    assert lifted.dims(4) == r.hilbert_function(4)

    m = module_from_strings(r, [0], [["x"]])
    lm = lift_presentation(m)  # S/(x, xy) = S/(x)
    assert lm.dims(4) == [1, 1, 1, 1, 1]


def test_tensor_presentation_toy():
    r = xy_ring()
    m = module_from_strings(r, [0], [["x"]])
    n = module_from_strings(r, [0], [["x + y"]])
    t = tensor_presentation(m, n)  # A/(x, x+y) = A/(x,y) = k
    assert t.dims(3) == [1, 0, 0, 0]


def test_tensor_with_free_is_identity_on_dims():
    r = ci_ring()
    m = module_from_strings(r, [0], [["x*y"]])
    t = tensor_presentation(m, free_module(r))
    assert t.dims(4) == m.dims(4)


def test_socle_dims():
    r = ci_ring()
    f = free_module(r)
    assert [f.socle_dim(d) for d in range(3)] == [0, 0, 1]  # socle = x*y
    k = residue_field(r)
    assert k.socle_dim(0) == 1


def test_module_map_and_split_ses():
    r = ci_ring()
    k = residue_field(r)
    f = free_module(r)
    # 0 -> k -> k (+) R -> R -> 0 split
    middle = module_from_strings(r, [0, 0], [["x", "0"], ["y", "0"]])
    import syzkit.freemod as fm
    from syzkit.linalg import zeros

    inc_cols = [zeros(fm.component_dim(r, middle.gen_degrees, 0), 1)[:, 0]]
    inc_cols[0][0] = 1
    inc = ModuleMap(k, middle, fm.FreeMap(r, k.gen_degrees, middle.gen_degrees, inc_cols))
    proj_cols = []
    for b, g in enumerate(middle.gen_degrees):
        v = zeros(fm.component_dim(r, f.gen_degrees, g), 1)[:, 0]
        if b == 1:
            v[0] = 1
        proj_cols.append(v)
    proj = ModuleMap(middle, f, fm.FreeMap(r, middle.gen_degrees, f.gen_degrees, proj_cols))
    assert inc.verify() and proj.verify()
    ok, why = verify_ses(inc, proj)
    assert ok, why


def test_annihilated_by():
    r = xy_ring()
    m = module_from_strings(r, [0], [["x"]])
    assert m.annihilated_by(r.base.parse("x"), 1)  # x kills y^1 in A/(x)? x*y = 0
    assert not m.annihilated_by(r.base.parse("y"), 1)


@pytest.mark.parametrize("case", ["ci", "golod", "two-generator"])
def test_action_matrix_equals_projected_free_multiplication(case):
    # reference: the dense block-diagonal multiplication on the free cover,
    # restricted to the representative columns of M_a and projected to M_{a+e}
    import numpy as np

    from syzkit.freemod import free_mult_matrix
    from syzkit.linalg import matmul

    if case == "ci":
        r = ring_from_strings(32003, ["x", "y", "z"], ["x^2", "y^2", "z^2"])
        m = module_from_strings(r, [0], [["x*y"]])
    elif case == "golod":
        r = ring_from_strings(2, ["x", "y"], ["x^2", "x*y", "y^2"])
        m = module_from_strings(r, [0], [["x + y"]])
    else:
        r = ring_from_strings(32003, ["x", "y", "z"], ["x^2 - y*z"])
        m = module_from_strings(r, [0, 1], [["x*y", "y"], ["0", "x + z"]])
    p = r.char
    for a in range(m.min_degree() - 1, 5):
        for e in range(3):
            for j in range(r.dim(e)):
                dense = free_mult_matrix(r, m.gen_degrees, e, j, a)
                want = matmul(m.proj(a + e), dense[:, m._space(a)[0]], p)
                got = m.action_matrix(e, j, a)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (a, e, j)
