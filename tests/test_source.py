"""Static checks on the package source."""

import ast
from pathlib import Path

import syzkit


def unread_parameters(path):
    """(module, function, parameter) for every parameter its body never reads."""
    out = set()
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
        params += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {
            node.id
            for stmt in body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        out |= {(path.stem, getattr(fn, "name", "<lambda>"), p) for p in params if p not in read}
    return out


def test_every_parameter_is_read():
    found = set()
    for path in sorted(Path(syzkit.__file__).parent.glob("*.py")):
        found |= unread_parameters(path)
    assert found == set()


def unread_locals(path):
    """(module, function, name) for every local a function assigns and
    never reads, nested functions included; `_` names are exempt."""
    out = set()
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, read = set(), set()
        for stmt in fn.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    (stored if isinstance(node.ctx, ast.Store) else read).add(node.id)
        out |= {(path.stem, fn.name, x) for x in stored - read if not x.startswith("_")}
    return out


def test_every_local_is_read():
    found = set()
    for path in sorted(Path(syzkit.__file__).parent.glob("*.py")):
        found |= unread_locals(path)
    assert found == set()


def _package_trees():
    for path in sorted(Path(syzkit.__file__).parent.glob("*.py")):
        yield path, ast.parse(path.read_text())


def test_one_module_decides_the_degree_window():
    # rings.TruncatedQuotientRing.degree_window holds the margin and the
    # collapse rule; no function takes a margin, and no other module asks
    # whether the ring has collapsed
    margins, calls = [], []
    for path, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
                margins += [f"{path.name}:{node.lineno}" for x in names if x == "margin"]
            if (path.stem != "rings" and isinstance(node, ast.Attribute)
                    and node.attr in ("is_artinian_within_bound", "top_degree")):
                calls.append(f"{path.name}:{node.lineno}")
    assert margins == [] and calls == []


def test_no_assert_statements():
    # `python -O` strips asserts, so checks in the package raise typed errors
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_freemod_builds_component_vectors():
    # freemod owns the block layout of a free-module component, so a
    # zeros(n, 1) column elsewhere is a component vector built by hand;
    # linalg and rings build vectors over F_p^n and R_d, not components
    found = []
    for path, tree in _package_trees():
        if path.stem in ("linalg", "rings", "freemod"):
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or len(node.args) != 2:
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            cols = node.args[1]
            if name == "zeros" and isinstance(cols, ast.Constant) and cols.value == 1:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_freemod_and_linalg_assign_into_slices():
    # freemod.block_matrix places every block of a component matrix, so an
    # assignment to a sliced subscript elsewhere lays out blocks by hand;
    # linalg slices inside its eliminations.  An augmented assignment (`+=`,
    # `-=`, `%=`) into a slice accumulates terms into a block by hand: a
    # block that is a sum of terms is summed first and placed once
    found = []
    for path, tree in _package_trees():
        if path.stem in ("freemod", "linalg"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.Assign):
                targets = node.targets
            else:
                continue
            for target in targets:
                if not isinstance(target, ast.Subscript):
                    continue
                index = target.slice
                if any(isinstance(x, ast.Slice)
                       for x in (index.elts if isinstance(index, ast.Tuple) else [index])):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_free_mult_matrix_reads_one_monomial_table():
    # a caller that acts by all of R_e reshapes the stacked
    # ring.mult_maps(e, a) into one product; only rings and
    # freemod.free_mult_matrix (one monomial at a time, for the chain
    # system) read the table of a single monomial
    found = []
    for path, tree in _package_trees():
        if path.stem == "rings":
            continue
        allowed = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and path.stem == "freemod"
                   and fn.name == "free_mult_matrix" for node in ast.walk(fn)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in allowed
                  and getattr(node.func, "attr", getattr(node.func, "id", None)) == "mult_map"]
    assert found == []


def test_only_polynomials_does_polynomial_arithmetic():
    # freemod owns the coordinates of free modules, so arithmetic on
    # polynomial dicts outside polynomials leaves them for a round trip
    names = {"poly_mul", "poly_add", "poly_scale", "monomial_mul"}
    found = []
    for path, tree in _package_trees():
        if path.stem == "polynomials":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used = [alias.name for alias in node.names]
            elif isinstance(node, ast.Call):
                used = [getattr(node.func, "id", getattr(node.func, "attr", None))]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in used if name in names]
    assert found == []


def test_homological_leaves_homology_to_the_one_primitive():
    # Tor and Ext read their dimensions and classes from modules.Homology,
    # which checks d o d = 0 on every pair it builds; ranks or kernels taken
    # in homological would compute homology beside it, unchecked
    names = {"rank", "rref", "kernel_basis", "extend_basis", "quotient_projection",
             "solve_many"}
    path = Path(syzkit.__file__).parent / "homological.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            found += [f"{path.name}:{node.lineno}" for a in node.names if a.name in names]
        elif (isinstance(node, ast.Attribute) and node.attr in names
              and getattr(node.value, "id", None) == "linalg"):
            found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_freemod_acts_on_free_sums():
    # freemod.act multiplies a free sum of copies of R or of a module by
    # R_e, one product per generator block; a call to the stacked tables
    # anywhere else acts blockwise by hand.  rings builds ring.mult_maps and
    # modules builds action_matrix, so each may call its own
    owners = {"mult_maps": {"rings", "freemod"}, "action_matrix": {"modules", "freemod"}}
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and path.stem not in owners.get(getattr(node.func, "attr", None), {path.stem})
    ]
    assert found == []


def test_resolutions_takes_no_span_and_no_rank():
    # a syzygy step reads its generators off the elimination of the next
    # map's block, and hands that elimination down; a span of m * ker by
    # freemod.act, or a rank taken beside it, would eliminate a second time
    names = {("freemod", "act"), ("linalg", "rank")}
    path = Path(syzkit.__file__).parent / "resolutions.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rsplit(".", 1)[-1]
            found += [f"{path.name}:{node.lineno}" for a in node.names
                      if (module, a.name) in names]
        elif (isinstance(node, ast.Attribute)
              and (getattr(node.value, "id", None), node.attr) in names):
            found.append(f"{path.name}:{node.lineno}")
    assert found == []
    # a kernel is reduced from scratch only where no block was handed down
    # (`_kernel`), and a handed block only at the one site that builds the
    # vectors of the generators a step picks, from the one formula
    reducers = {"rref", "_null_space", "rref_null_space", "kernel_basis", "solve", "solve_many"}
    owners = []
    for top in ast.parse(path.read_text()).body:
        for fn in top.body if isinstance(top, ast.ClassDef) else [top]:
            if isinstance(fn, ast.FunctionDef):
                owners += [(fn.name, _called(node)) for node in ast.walk(fn)
                           if isinstance(node, ast.Call) and _called(node) in reducers]
    assert sorted(owners) == [("_kernel", "rref"), ("kernel_generators", "rref"),
                              ("kernel_generators", "rref_null_space")]
    # A is eliminated at one call site, behind the record of blocks already
    # eliminated in the resolution, which gives both its free columns and
    # the new generators; no second elimination of [A | I], no dense null
    # space, no helper that compares a block with the last one beside it
    tree = ast.parse(path.read_text())
    sites = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _called(node) == "_pivot_columns"]
    assert len(sites) == 1, sites
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names}
    assert not imported & {"extend_basis", "identity", "free_columns", "_null_space"}
    assert not [node for node in ast.walk(tree)
                if getattr(node, "name", getattr(node, "id", None)) == "_same"]
    from syzkit.resolutions import Handover

    assert not hasattr(Handover, "null_space")


def test_no_check_builds_a_map():
    # the checks read the image matrices that FreeMap.compose gives, degree
    # by degree; a map built only to be compared and dropped (a composite
    # made into a map, a scaled copy, a zero map) is work the check wastes
    checks = {("complexes", "FreeComplex", "verify"), ("complexes", "ChainMap", "verify"),
              ("complexes", None, "_agree"), ("construction", None, "_commute"),
              ("construction", None, "_check_e_sequence"), ("modules", "ModuleMap", "verify"),
              ("modules", None, "verify_ses"), ("resolutions", "FreeResolution", "verify_complex")}
    builders = {"FreeMap", "zero", "selection", "from_poly_matrix", "restrict", "scale",
                "equals"}
    seen, found = set(), []
    for path, tree in _package_trees():
        for top in tree.body:
            owner = top.name if isinstance(top, ast.ClassDef) else None
            for fn in top.body if owner else [top]:
                if (path.stem, owner, getattr(fn, "name", None)) not in checks:
                    continue
                seen.add((path.stem, owner, fn.name))
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, ast.Call)
                          and getattr(node.func, "attr", getattr(node.func, "id", None))
                          in builders]
    assert seen == checks
    assert found == []
    # the exact sequence's composite g o f comes from compose, and its
    # dense degree matrices are only ranked, never multiplied together
    path = Path(syzkit.__file__).parent / "modules.py"
    ses, = [fn for fn in ast.parse(path.read_text()).body
            if getattr(fn, "name", None) == "verify_ses"]
    calls = [node for node in ast.walk(ses) if isinstance(node, ast.Call)]
    assert "compose" in [_called(node) for node in calls]
    ranked = {id(arg) for node in calls if _called(node) == "rank" for arg in node.args}
    assert not [node.lineno for node in calls
                if _called(node) == "induced" and id(node) not in ranked]


def _called(node):
    """The name a call node calls, `f` for f(..) and x.f(..)."""
    return getattr(node.func, "attr", getattr(node.func, "id", None))


def test_one_linear_solve_and_one_homology_per_complex():
    # linalg.solve_many is the one linear solve, and a complex's homology
    # question reads one modules.Homology: no per-degree total or dimension
    # (homology_total, homology_dim) builds a fresh one for every degree
    from syzkit import linalg
    from syzkit.complexes import FreeComplex

    assert not hasattr(linalg, "solve")
    assert not hasattr(FreeComplex, "homology_total") and not hasattr(FreeComplex, "homology_dim")
    found = [f"{p.name}:{node.lineno}" for p, tree in _package_trees()
             for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
             and node.name in ("solve", "homology_total", "homology_dim")]
    assert found == []
    path = Path(syzkit.__file__).parent / "complexes.py"
    cls, = [top for top in ast.parse(path.read_text()).body
            if isinstance(top, ast.ClassDef) and top.name == "FreeComplex"]
    sup, = [fn for fn in cls.body if getattr(fn, "name", None) == "sup_within_window"]
    calls = [_called(node) for node in ast.walk(sup) if isinstance(node, ast.Call)]
    assert calls.count("homology") == 1 and "homology_dim" not in calls


def test_one_placement_of_a_factor_map_on_the_product():
    # tensor_many's differential and induced_chain_map's components are
    # factor maps placed on the product by one routine, _Embedding.placed,
    # which alone computes the Koszul sign
    path = Path(syzkit.__file__).parent / "complexes.py"
    tree = ast.parse(path.read_text())
    fns = {fn.name: fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    for name in ("tensor_many", "induced_chain_map"):
        assert "placed" in [_called(node) for node in ast.walk(fns[name])
                            if isinstance(node, ast.Call)], name
        assert not [node for node in ast.walk(fns[name])
                    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)], name
    assert [p.stem for p, tree in _package_trees() for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "placed"] == ["complexes"]


def test_compose_reads_both_maps_by_their_blocks():
    # FreeMap.compose works from both maps' stacks; a dense matrix of the
    # outer map or a dense column of the inner one would bring back the
    # product of a whole degree component
    dense = {"induced", "column", "vector", "block_matrix"}
    path = Path(syzkit.__file__).parent / "freemod.py"
    compose = [fn for top in ast.parse(path.read_text()).body
               if isinstance(top, ast.ClassDef) and top.name == "FreeMap"
               for fn in top.body if getattr(fn, "name", None) == "compose"]
    assert len(compose) == 1
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(compose[0])
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) in dense]
    assert found == []


def test_dense_columns_come_only_from_the_accessor():
    # a map keeps only its nonzero blocks and is built and read as records:
    # no dense column leaves it.  FreeMap has no column accessor and
    # freemod no component-vector writer, and nothing in the package calls
    # either name.  The augmentation of a resolution is a map too, so
    # resolutions builds no free cover from generator vectors
    # (generator_matrix)
    from syzkit import freemod

    assert not hasattr(freemod.FreeMap, "column") and not hasattr(freemod, "vector")
    found = []
    for path, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "columns":
                found.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Call) and getattr(
                    node.func, "attr", getattr(node.func, "id", None)) in ("column", "vector"):
                found.append(f"{path.name}:{node.lineno}")
            if path.stem == "resolutions" and "generator_matrix" in (
                    getattr(node, "id", None), getattr(node, "name", None)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_cone_builders_take_whole_records():
    # nothing calls a per-column view of a map (blocks), and cone and
    # induced_on_cone take their maps' pieces as whole records, re-indexed
    # and signed by FreeMap.records.  A factor map is embedded in the
    # product ring group by group (complexes._Embedding.embedded), so
    # nothing embeds a single piece
    path = Path(syzkit.__file__).parent / "complexes.py"
    builders = [fn for fn in ast.parse(path.read_text()).body
                if isinstance(fn, ast.FunctionDef) and fn.name in ("cone", "induced_on_cone")]
    assert len(builders) == 2
    assert all(any(getattr(node.func, "attr", None) == "records" for node in ast.walk(fn)
                   if isinstance(node, ast.Call)) for fn in builders)
    found = [f"{p.name}:{node.lineno}" for p, tree in _package_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None))
             in ("blocks", "embed")]
    assert found == []


def test_a_map_has_one_constructor_body():
    # a FreeMap holds its ring, its two degree tuples, its twist and its
    # groups of records, and only __init__ sets them: from_dense, selection,
    # zero, from_poly_matrix and restrict produce records and call the
    # constructor, so no second body fills a map, and no cache or
    # per-column view sits beside the records
    path = Path(syzkit.__file__).parent / "freemod.py"
    cls, = [top for top in ast.parse(path.read_text()).body
            if isinstance(top, ast.ClassDef) and top.name == "FreeMap"]
    stores = [(fn.name, node.attr) for fn in cls.body if isinstance(fn, ast.FunctionDef)
              for node in ast.walk(fn)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name)]  # not x.flags.writeable
    assert sorted(stores) == [("__init__", name) for name in
                              ("_groups", "ring", "source_degrees", "target_degrees", "twist")]
    assert not [fn.name for fn in cls.body if getattr(fn, "name", None) in
                ("blocks", "from_records", "_store", "_add", "_columns")]
    # outside freemod, nothing sets an attribute of a map
    found = [f"{p.name}:{node.lineno}" for p, tree in _package_trees() if p.stem != "freemod"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
             and node.attr in ("_groups", "source_degrees", "target_degrees")]
    assert found == []


def test_one_builder_of_a_differential_matrix():
    # FreeMap.induced builds the matrix of a map tensored with R or with a
    # module, so F (x) N, Hom(F, N) (through FreeMap.dual) and the Koszul
    # complex over M come from it; only freemod (the free sums of `act`
    # and `free_mult_matrix`) and chainsolve (the chain system) place
    # blocks by hand, and no per-piece builder sits beside it
    callers = {p.stem for p, tree in _package_trees() for node in ast.walk(tree)
               if isinstance(node, ast.Call)
               and getattr(node.func, "attr", getattr(node.func, "id", None)) == "block_matrix"}
    assert callers == {"freemod", "chainsolve"}
    gone = {"_with_n", "_koszul_diff", "action_by_ring_vector", "_induced"}
    found = [f"{p.name}:{node.lineno}" for p, tree in _package_trees()
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in gone]
    assert found == []


def test_the_syzygy_step_builds_only_the_rows_it_reads():
    # A and the next step's matrix are built on the handed rows through
    # FreeMap.induced(d, rows=...): no induced (or matrix_at) result is
    # sliced by rows after a whole component was built
    path = Path(syzkit.__file__).parent / "resolutions.py"
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Call)
             and _called(node.value) in ("induced", "matrix_at")]
    assert found == []
    fn, = [top for top in ast.parse(path.read_text()).body
           if getattr(top, "name", None) == "kernel_generators"]
    rows = [node for node in ast.walk(fn) if isinstance(node, ast.Call)
            and _called(node) == "induced" and [k.arg for k in node.keywords] == ["rows"]]
    assert len(rows) == 1


def test_one_filler_of_the_ring_tables():
    # TruncatedQuotientRing._degree fills R_0, R_1, ... in order, and is
    # the one place that eliminates for the tables; no second fill path
    # sits beside it, and outside rings and freemod (from_poly_matrix)
    # nothing builds normal forms one polynomial at a time: the tables are
    # read whole (nf_matrix)
    sites = []
    for path, tree in _package_trees():
        for top in tree.body:
            owner = top.name if isinstance(top, ast.ClassDef) else None
            for fn in top.body if owner else [top]:
                sites += [(path.stem, owner, fn.name) for node in ast.walk(fn)
                          if isinstance(node, ast.Call) and _called(node) == "rref_stack"]
    assert sites == [("rings", "TruncatedQuotientRing", "_degree")]
    gone = {"_ensure", "_compute_degree", "_max_computed", "embed_monomial"}
    path = Path(syzkit.__file__).parent / "rings.py"
    assert not [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
                if {getattr(node, "name", None), getattr(node, "attr", None),
                    getattr(node, "id", None)} & gone]
    found = [f"{p.name}:{node.lineno}" for p, tree in _package_trees()
             if p.stem not in ("rings", "freemod") for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _called(node) == "normal_form"]
    assert found == []
