"""Deployment-model document format and validation.

A model is a strict JSON document describing nodes (virtual machines,
virtual storage, hosted databases, remote nodes), the artifacts deployed
onto them, communication paths between them, and disjoint node groups
used for cost breakdowns.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from functools import cached_property

from . import schema
from .errors import Diagnostic, ModelError, PatternError
from .patterns import PatternSpec, parse_patterns

VIRTUAL_MACHINE = "virtual_machine"
VIRTUAL_STORAGE = "virtual_storage"
HOSTED_DATABASE = "hosted_database"
REMOTE_NODE = "remote_node"
NODE_KINDS = (VIRTUAL_MACHINE, VIRTUAL_STORAGE, HOSTED_DATABASE, REMOTE_NODE)

APPLICATION = "application"
DATA_SET = "data_set"
ARTIFACT_KINDS = (APPLICATION, DATA_SET)

VM_HOURS = "vm_hours"
STORAGE_GB = "storage_gb"
IO_IN_REQUESTS = "io_in_requests"
IO_OUT_REQUESTS = "io_out_requests"
IO_GB = "io_gb"
DATA_IN_GB = "data_in_gb"
DATA_OUT_GB = "data_out_gb"
DATA_LINK_GB = "data_link_gb"
REQUIREMENT_KINDS = (VM_HOURS, STORAGE_GB, IO_IN_REQUESTS, IO_OUT_REQUESTS,
                     IO_GB, DATA_IN_GB, DATA_OUT_GB, DATA_LINK_GB)

# storage_gb is a held level billed by time-average; everything else is a
# consumed monthly quantity.
KIND_CLASS = {kind: ("stock" if kind == STORAGE_GB else "flow") for kind in REQUIREMENT_KINDS}

# Which requirement kinds may appear on which node kinds. data_link_gb is
# path-only and therefore legal on no node kind.
LEGAL_REQUIREMENTS = {
    VIRTUAL_MACHINE: frozenset({VM_HOURS, DATA_IN_GB, DATA_OUT_GB}),
    HOSTED_DATABASE: frozenset({VM_HOURS, STORAGE_GB, IO_IN_REQUESTS, IO_OUT_REQUESTS,
                                IO_GB, DATA_IN_GB, DATA_OUT_GB}),
    VIRTUAL_STORAGE: frozenset({STORAGE_GB, IO_IN_REQUESTS, IO_OUT_REQUESTS,
                                IO_GB, DATA_IN_GB, DATA_OUT_GB}),
    REMOTE_NODE: frozenset({DATA_IN_GB, DATA_OUT_GB}),
}


Placement = namedtuple("Placement", "provider region")
# sku: str | None; cpu_ghz, ram_gb: float | None
VmSpec = namedtuple("VmSpec", "operating_system sku cpu_ghz ram_gb", defaults=(None, None, None))
StorageSpec = namedtuple("StorageSpec", "storage_type")
# kind: one of REQUIREMENT_KINDS; patterns: the pattern texts, in order
ResourceRequirement = namedtuple("ResourceRequirement", "kind baseline patterns",
                                 defaults=((),))
# placement, vm_spec, storage_spec: a Placement, VmSpec, StorageSpec or None;
# requirements: a tuple of ResourceRequirement
Node = namedtuple("Node", "id kind placement vm_spec storage_spec requirements",
                  defaults=(None, None, None, ()))
ArtifactItem = namedtuple("ArtifactItem", "id kind label", defaults=("",))
DeploymentBinding = namedtuple("DeploymentBinding", "artifact_id node_id")
# volume: the ResourceRequirement of the data it carries
CommunicationPath = namedtuple("CommunicationPath", "id from_node to_node volume")
Group = namedtuple("Group", "id label node_ids", defaults=("", ()))


class DeploymentModel(namedtuple("DeploymentModel", "name nodes artifacts bindings paths groups",
                                 defaults=((),) * 5)):
    """A model: its name and tuples of its Node, ArtifactItem,
    DeploymentBinding, CommunicationPath and Group records. It has no
    ``__slots__``: its cached properties need a ``__dict__``."""

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: a DeploymentModel is read-only")

    __delattr__ = __setattr__

    def replaced(self, provider: str, region: str) -> DeploymentModel:
        """Copy of the model with every placed node moved to provider/region.

        The copy carries the same pattern texts, so it shares this model's
        parsed pattern table instead of parsing them again.
        """
        placement = Placement(provider, region)
        nodes = tuple(
            node if node.placement is None else node._replace(placement=placement)
            for node in self.nodes
        )
        moved = self._replace(nodes=nodes)
        moved.__dict__["parsed_patterns"] = self.parsed_patterns  # the cached_property's slot
        return moved

    @cached_property
    def parsed_patterns(self) -> dict[str, tuple[PatternSpec, ...] | PatternError]:
        """Each distinct pattern text of this model, parsed once on first use:
        its specs, or the PatternError that rejects it."""
        parsed: dict[str, tuple[PatternSpec, ...] | PatternError] = {}
        requirements = [req for node in self.nodes for req in node.requirements]
        requirements += [path.volume for path in self.paths]
        for req in requirements:
            for text in req.patterns:
                if text not in parsed:
                    try:
                        parsed[text] = tuple(parse_patterns(text))
                    except PatternError as exc:
                        parsed[text] = exc
        return parsed

    @cached_property
    def _diagnostics(self) -> tuple[Diagnostic, ...]:
        """This model's validation findings, found once on first use."""
        return _findings(self)


# --- structural parsing (strict: unknown keys are schema errors) ----------

def _parse_requirement(value: object, path: str) -> ResourceRequirement:
    obj = schema.fields(value, path, ("kind", "baseline"), ("patterns",))
    kind = schema.choice(schema.string(obj, "kind", path), f"{path}.kind",
                         REQUIREMENT_KINDS, "requirement kind")
    return ResourceRequirement(kind, schema.number(obj, "baseline", path),
                               schema.strings(obj, "patterns", path, "pattern strings"))


def _parse_node(value: object, path: str) -> Node:
    obj = schema.fields(value, path, ("id", "kind"),
                        ("placement", "vm_spec", "storage_spec", "requirements"))
    node_id = schema.string(obj, "id", path)
    kind = schema.choice(schema.string(obj, "kind", path), f"{path}.kind",
                         NODE_KINDS, "node kind")
    placement = None
    if obj.get("placement") is not None:
        p = schema.fields(obj["placement"], f"{path}.placement", ("provider", "region"))
        placement = Placement(schema.string(p, "provider", f"{path}.placement"),
                              schema.string(p, "region", f"{path}.placement"))
    vm_spec = None
    if obj.get("vm_spec") is not None:
        v = schema.fields(obj["vm_spec"], f"{path}.vm_spec", ("operating_system",),
                          ("sku", "cpu_ghz", "ram_gb"))
        sku = schema.string(v, "sku", f"{path}.vm_spec") if "sku" in v else None
        cpu = schema.number(v, "cpu_ghz", f"{path}.vm_spec") if "cpu_ghz" in v else None
        ram = schema.number(v, "ram_gb", f"{path}.vm_spec") if "ram_gb" in v else None
        vm_spec = VmSpec(schema.string(v, "operating_system", f"{path}.vm_spec"), sku, cpu, ram)
    storage_spec = None
    if obj.get("storage_spec") is not None:
        st = schema.fields(obj["storage_spec"], f"{path}.storage_spec", ("storage_type",))
        storage_spec = StorageSpec(schema.string(st, "storage_type", f"{path}.storage_spec"))
    requirements = tuple(
        _parse_requirement(req, f"{path}.requirements[{i}]")
        for i, req in enumerate(schema.array(obj, "requirements", path))
    )
    return Node(node_id, kind, placement, vm_spec, storage_spec, requirements)


def _build_model(data: object) -> DeploymentModel:
    top = schema.fields(data, "$", ("name", "nodes"),
                        ("artifacts", "bindings", "paths", "groups"))
    name = schema.string(top, "name", "$")
    nodes = tuple(_parse_node(n, f"nodes[{i}]")
                  for i, n in enumerate(schema.array(top, "nodes", "")))
    artifacts = []
    for i, a in enumerate(schema.array(top, "artifacts", "")):
        obj = schema.fields(a, f"artifacts[{i}]", ("id", "kind"), ("label",))
        kind = schema.choice(schema.string(obj, "kind", f"artifacts[{i}]"), f"artifacts[{i}].kind",
                             ARTIFACT_KINDS, "artifact kind")
        label = schema.string(obj, "label", f"artifacts[{i}]") if "label" in obj else ""
        artifacts.append(ArtifactItem(schema.string(obj, "id", f"artifacts[{i}]"), kind, label))
    bindings = []
    for i, b in enumerate(schema.array(top, "bindings", "")):
        obj = schema.fields(b, f"bindings[{i}]", ("artifact_id", "node_id"))
        bindings.append(DeploymentBinding(schema.string(obj, "artifact_id", f"bindings[{i}]"),
                                          schema.string(obj, "node_id", f"bindings[{i}]")))
    paths = []
    for i, p in enumerate(schema.array(top, "paths", "")):
        obj = schema.fields(p, f"paths[{i}]", ("id", "from_node", "to_node", "volume"))
        volume = _parse_requirement(obj["volume"], f"paths[{i}].volume")
        paths.append(CommunicationPath(schema.string(obj, "id", f"paths[{i}]"),
                                       schema.string(obj, "from_node", f"paths[{i}]"),
                                       schema.string(obj, "to_node", f"paths[{i}]"),
                                       volume))
    groups = []
    for i, g in enumerate(schema.array(top, "groups", "")):
        obj = schema.fields(g, f"groups[{i}]", ("id",), ("label", "node_ids"))
        node_ids = schema.strings(obj, "node_ids", f"groups[{i}]", "node ids")
        label = schema.string(obj, "label", f"groups[{i}]") if "label" in obj else ""
        groups.append(Group(schema.string(obj, "id", f"groups[{i}]"), label, node_ids))
    return DeploymentModel(name, nodes, tuple(artifacts), tuple(bindings),
                           tuple(paths), tuple(groups))


def parse_model(text: str, source: str | None = None) -> DeploymentModel:
    """Parse and validate a model document (from file ``source``); raises ModelError."""
    model = schema.read(text, _build_model, ModelError, source)
    diagnostics = validate(model)
    if diagnostics:  # validation finds errors only
        raise ModelError("model validation failed", diagnostics)
    return model


def load_model(path: str) -> DeploymentModel:
    return parse_model(schema.read_input(path), path)


# --- semantic validation ---------------------------------------------------

def validate(model: DeploymentModel) -> list[Diagnostic]:
    """All invariant violations as diagnostics, sorted by location path with
    each ``[index]`` compared as an integer (``nodes[2]`` before ``nodes[10]``).

    The model is immutable, so they are found once and kept on it; each call
    returns a new list. A copy made by :meth:`DeploymentModel.replaced` is
    checked afresh.
    """
    return list(model._diagnostics)


def _findings(model: DeploymentModel) -> tuple[Diagnostic, ...]:
    """The validation walk over the whole model behind :func:`validate`."""
    diags: list[Diagnostic] = []

    def err(path: str, message: str) -> None:
        diags.append(Diagnostic("error", path, message))

    node_ids: dict[str, int] = {}
    for i, node in enumerate(model.nodes):
        if node.id in node_ids:
            err(f"nodes[{i}].id", f"duplicate node id {node.id!r}")
        else:
            node_ids[node.id] = i
        if node.kind not in NODE_KINDS:
            err(f"nodes[{i}].kind", f"unknown node kind {node.kind!r}")
        if node.kind == REMOTE_NODE:
            if node.placement is not None:
                err(f"nodes[{i}].placement", "remote nodes carry no placement")
        elif node.placement is None:
            err(f"nodes[{i}].placement", f"{node.kind} requires a placement")
        else:
            if not node.placement.provider:
                err(f"nodes[{i}].placement.provider", "provider must be non-empty")
            if not node.placement.region:
                err(f"nodes[{i}].placement.region", "region must be non-empty")
        if node.kind == VIRTUAL_MACHINE:
            if node.vm_spec is None:
                err(f"nodes[{i}].vm_spec", "virtual machines require a vm_spec")
            else:
                has_sku = node.vm_spec.sku is not None
                has_raw = node.vm_spec.cpu_ghz is not None and node.vm_spec.ram_gb is not None
                partial_raw = (node.vm_spec.cpu_ghz is None) != (node.vm_spec.ram_gb is None)
                if partial_raw:
                    err(f"nodes[{i}].vm_spec", "raw spec needs both cpu_ghz and ram_gb")
                elif has_sku == has_raw:
                    err(f"nodes[{i}].vm_spec",
                        "exactly one of sku or raw spec (cpu_ghz + ram_gb) is required")
        elif node.vm_spec is not None:
            err(f"nodes[{i}].vm_spec", f"vm_spec is not allowed on a {node.kind}")
        if node.kind != VIRTUAL_STORAGE and node.storage_spec is not None:
            err(f"nodes[{i}].storage_spec", f"storage_spec is not allowed on a {node.kind}")
        seen_kinds: set[str] = set()
        for j, req in enumerate(node.requirements):
            path = f"nodes[{i}].requirements[{j}]"
            if req.kind in seen_kinds:
                err(f"{path}.kind", f"duplicate requirement kind {req.kind!r} on node {node.id!r}")
            seen_kinds.add(req.kind)
            if req.kind not in LEGAL_REQUIREMENTS.get(node.kind, frozenset()):
                err(f"{path}.kind",
                    f"requirement kind {req.kind!r} is not legal on a {node.kind}")
            _check_requirement(model, req, path, err)

    artifact_ids: set[str] = set()
    for i, artifact in enumerate(model.artifacts):
        if artifact.id in artifact_ids:
            err(f"artifacts[{i}].id", f"duplicate artifact id {artifact.id!r}")
        artifact_ids.add(artifact.id)
        if artifact.kind not in ARTIFACT_KINDS:
            err(f"artifacts[{i}].kind", f"unknown artifact kind {artifact.kind!r}")

    artifact_by_id = {a.id: a for a in model.artifacts}
    for i, binding in enumerate(model.bindings):
        artifact = artifact_by_id.get(binding.artifact_id)
        if artifact is None:
            err(f"bindings[{i}].artifact_id",
                f"binding references unknown artifact {binding.artifact_id!r}")
        node_index = node_ids.get(binding.node_id)
        if node_index is None:
            err(f"bindings[{i}].node_id",
                f"binding references unknown node {binding.node_id!r}")
        if artifact is not None and node_index is not None:
            node = model.nodes[node_index]
            legal = ((VIRTUAL_MACHINE, REMOTE_NODE) if artifact.kind == APPLICATION
                     else (VIRTUAL_STORAGE, HOSTED_DATABASE))
            if node.kind not in legal:
                err(f"bindings[{i}]",
                    f"{artifact.kind} {artifact.id!r} cannot be deployed on a {node.kind}")

    path_ids: set[str] = set()
    for i, path in enumerate(model.paths):
        if path.id in path_ids:
            err(f"paths[{i}].id", f"duplicate path id {path.id!r}")
        path_ids.add(path.id)
        if path.id in node_ids:
            err(f"paths[{i}].id", f"path id {path.id!r} collides with a node id")
        for key, ref in (("from_node", path.from_node), ("to_node", path.to_node)):
            if ref not in node_ids:
                err(f"paths[{i}].{key}", f"path references unknown node {ref!r}")
        if path.volume.kind != DATA_LINK_GB:
            err(f"paths[{i}].volume.kind", "path volume must have kind 'data_link_gb'")
        _check_requirement(model, path.volume, f"paths[{i}].volume", err)

    group_ids: set[str] = set()
    grouped: dict[str, str] = {}
    for i, group in enumerate(model.groups):
        if group.id in group_ids:
            err(f"groups[{i}].id", f"duplicate group id {group.id!r}")
        group_ids.add(group.id)
        for j, node_id in enumerate(group.node_ids):
            if node_id not in node_ids:
                err(f"groups[{i}].node_ids[{j}]",
                    f"group references unknown node {node_id!r}")
            elif node_id in grouped:
                err(f"groups[{i}].node_ids[{j}]",
                    f"node {node_id!r} already belongs to group {grouped[node_id]!r}")
            else:
                grouped[node_id] = group.id

    diags.sort(key=_path_order)
    return tuple(diags)


def _path_order(diagnostic: Diagnostic) -> tuple[list, str]:
    """Sort key: the path, split so that each ``[index]`` is an integer, then
    the message."""
    parts: list = re.split(r"\[([0-9]+)\]", diagnostic.path)
    parts[1::2] = map(int, parts[1::2])
    return parts, diagnostic.message


def _check_requirement(model: DeploymentModel, req: ResourceRequirement, path: str, err) -> None:
    if not math.isfinite(req.baseline):
        err(f"{path}.baseline", f"baseline must be finite, got {req.baseline}")
    elif req.baseline < 0:
        err(f"{path}.baseline", f"baseline must be >= 0, got {req.baseline}")
    for k, text in enumerate(req.patterns):
        parsed = model.parsed_patterns[text]
        if isinstance(parsed, PatternError):
            err(f"{path}.patterns[{k}]", str(parsed))
