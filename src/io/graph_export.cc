#include "io/graph_export.h"

namespace sitm::io {
namespace {

std::string DotId(CellId id) {
  std::string out = "c";
  out += std::to_string(id.value());
  return out;
}

const char* EdgeStyle(indoor::EdgeType type) {
  switch (type) {
    case indoor::EdgeType::kAccessibility:
      return "solid";
    case indoor::EdgeType::kConnectivity:
      return "dashed";
    case indoor::EdgeType::kAdjacency:
      return "dotted";
  }
  return "solid";
}

void AppendNrgBody(const indoor::Nrg& graph, std::string* out) {
  for (const indoor::CellSpace& cell : graph.cells()) {
    *out += "  " + DotId(cell.id()) + " [label=" + JsonEscape(cell.name()) +
            "];\n";
  }
  for (const indoor::NrgEdge& e : graph.edges()) {
    *out += "  " + DotId(e.from) + " -> " + DotId(e.to) + " [style=" +
            EdgeStyle(e.type) + "];\n";
  }
}

core::AnnotationKind KindFromName(const std::string& name) {
  if (name == "activity") return core::AnnotationKind::kActivity;
  if (name == "behavior") return core::AnnotationKind::kBehavior;
  if (name == "goal") return core::AnnotationKind::kGoal;
  return core::AnnotationKind::kOther;
}

JsonValue AnnotationsToJson(const core::AnnotationSet& set) {
  JsonValue::Array arr;
  for (const core::SemanticAnnotation& a : set.annotations()) {
    arr.push_back(JsonValue::Object{
        {"kind", std::string(core::AnnotationKindName(a.kind))},
        {"value", a.value}});
  }
  return arr;
}

Result<core::AnnotationSet> AnnotationsFromJson(const JsonValue& json) {
  core::AnnotationSet set;
  SITM_ASSIGN_OR_RETURN(const JsonValue::Array* arr, json.AsArray());
  for (const JsonValue& entry : *arr) {
    SITM_ASSIGN_OR_RETURN(const JsonValue* kind, entry.Get("kind"));
    SITM_ASSIGN_OR_RETURN(const JsonValue* value, entry.Get("value"));
    SITM_ASSIGN_OR_RETURN(const std::string kind_name, kind->AsString());
    SITM_ASSIGN_OR_RETURN(const std::string value_str, value->AsString());
    set.Add(KindFromName(kind_name), value_str);
  }
  return set;
}

}  // namespace

std::string NrgToDot(const indoor::Nrg& graph, const std::string& name) {
  std::string out = "digraph " + name + " {\n";
  AppendNrgBody(graph, &out);
  out += "}\n";
  return out;
}

std::string MultiLayerGraphToDot(const indoor::MultiLayerGraph& graph) {
  std::string out = "digraph multilayer {\n";
  for (const indoor::SpaceLayer& layer : graph.layers()) {
    out += "  subgraph cluster_" + std::to_string(layer.id().value()) + " {\n";
    out += "    label=" + JsonEscape(layer.name()) + ";\n";
    std::string body;
    AppendNrgBody(layer.graph(), &body);
    // Indent the layer body one extra level.
    std::size_t pos = 0;
    while (pos < body.size()) {
      const std::size_t next = body.find('\n', pos);
      out += "  " + body.substr(pos, next - pos + 1);
      pos = next + 1;
    }
    out += "  }\n";
  }
  for (const indoor::JointEdge& e : graph.joint_edges()) {
    out += "  " + DotId(e.from) + " -> " + DotId(e.to) +
           " [style=dashed, color=gray, label=\"" +
           std::string(qsr::TopologicalRelationName(e.relation)) + "\"];\n";
  }
  out += "}\n";
  return out;
}

JsonValue MultiLayerGraphToJson(const indoor::MultiLayerGraph& graph) {
  JsonValue::Array layers;
  for (const indoor::SpaceLayer& layer : graph.layers()) {
    JsonValue::Array cells;
    for (const indoor::CellSpace& cell : layer.graph().cells()) {
      JsonValue::Object cell_obj{
          {"id", cell.id().value()},
          {"name", cell.name()},
          {"class", std::string(indoor::CellClassName(cell.cell_class()))}};
      if (cell.floor_level()) {
        cell_obj.emplace_back("floor", *cell.floor_level());
      }
      if (!cell.attributes().empty()) {
        JsonValue::Object attrs;
        for (const auto& [k, v] : cell.attributes()) {
          attrs.emplace_back(k, v);
        }
        cell_obj.emplace_back("attributes", std::move(attrs));
      }
      cells.push_back(std::move(cell_obj));
    }
    JsonValue::Array edges;
    for (const indoor::NrgEdge& e : layer.graph().edges()) {
      JsonValue::Object edge_obj{
          {"from", e.from.value()},
          {"to", e.to.value()},
          {"type", std::string(indoor::EdgeTypeName(e.type))}};
      if (e.boundary.valid()) {
        edge_obj.emplace_back("boundary", e.boundary.value());
      }
      edges.push_back(std::move(edge_obj));
    }
    layers.push_back(JsonValue::Object{
        {"id", layer.id().value()},
        {"name", layer.name()},
        {"kind", std::string(indoor::LayerKindName(layer.kind()))},
        {"cells", std::move(cells)},
        {"edges", std::move(edges)}});
  }
  JsonValue::Array joints;
  for (const indoor::JointEdge& e : graph.joint_edges()) {
    joints.push_back(JsonValue::Object{
        {"from", e.from.value()},
        {"to", e.to.value()},
        {"relation",
         std::string(qsr::TopologicalRelationName(e.relation))}});
  }
  return JsonValue::Object{{"layers", std::move(layers)},
                           {"jointEdges", std::move(joints)}};
}

namespace {

Result<indoor::CellClass> ParseCellClass(const std::string& name) {
  for (int c = 0; c <= static_cast<int>(indoor::CellClass::kRegionOfInterest);
       ++c) {
    const auto value = static_cast<indoor::CellClass>(c);
    if (indoor::CellClassName(value) == name) return value;
  }
  return Status::InvalidArgument("unknown cell class: '" + name + "'");
}

Result<indoor::LayerKind> ParseLayerKind(const std::string& name) {
  for (indoor::LayerKind k :
       {indoor::LayerKind::kTopographic, indoor::LayerKind::kSemantic}) {
    if (indoor::LayerKindName(k) == name) return k;
  }
  return Status::InvalidArgument("unknown layer kind: '" + name + "'");
}

Result<indoor::EdgeType> ParseEdgeType(const std::string& name) {
  for (indoor::EdgeType t :
       {indoor::EdgeType::kAdjacency, indoor::EdgeType::kConnectivity,
        indoor::EdgeType::kAccessibility}) {
    if (indoor::EdgeTypeName(t) == name) return t;
  }
  return Status::InvalidArgument("unknown edge type: '" + name + "'");
}

}  // namespace

Result<indoor::MultiLayerGraph> MultiLayerGraphFromJson(
    const JsonValue& json) {
  indoor::MultiLayerGraph graph;
  SITM_ASSIGN_OR_RETURN(const JsonValue* layers_json, json.Get("layers"));
  SITM_ASSIGN_OR_RETURN(const JsonValue::Array* layers,
                        layers_json->AsArray());
  for (const JsonValue& layer_json : *layers) {
    SITM_ASSIGN_OR_RETURN(const JsonValue* id, layer_json.Get("id"));
    SITM_ASSIGN_OR_RETURN(const std::int64_t layer_id, id->AsInt());
    SITM_ASSIGN_OR_RETURN(const JsonValue* name, layer_json.Get("name"));
    SITM_ASSIGN_OR_RETURN(const std::string layer_name, name->AsString());
    SITM_ASSIGN_OR_RETURN(const JsonValue* kind, layer_json.Get("kind"));
    SITM_ASSIGN_OR_RETURN(const std::string kind_name, kind->AsString());
    SITM_ASSIGN_OR_RETURN(const indoor::LayerKind layer_kind,
                          ParseLayerKind(kind_name));
    indoor::SpaceLayer layer(LayerId(layer_id), layer_name, layer_kind);

    SITM_ASSIGN_OR_RETURN(const JsonValue* cells_json,
                          layer_json.Get("cells"));
    SITM_ASSIGN_OR_RETURN(const JsonValue::Array* cells,
                          cells_json->AsArray());
    for (const JsonValue& cell_json : *cells) {
      SITM_ASSIGN_OR_RETURN(const JsonValue* cell_id, cell_json.Get("id"));
      SITM_ASSIGN_OR_RETURN(const std::int64_t cid, cell_id->AsInt());
      SITM_ASSIGN_OR_RETURN(const JsonValue* cell_name,
                            cell_json.Get("name"));
      SITM_ASSIGN_OR_RETURN(const std::string cname, cell_name->AsString());
      SITM_ASSIGN_OR_RETURN(const JsonValue* cell_class,
                            cell_json.Get("class"));
      SITM_ASSIGN_OR_RETURN(const std::string class_name,
                            cell_class->AsString());
      SITM_ASSIGN_OR_RETURN(const indoor::CellClass cclass,
                            ParseCellClass(class_name));
      indoor::CellSpace cell(CellId(cid), cname, cclass);
      if (const Result<const JsonValue*> floor = cell_json.Get("floor");
          floor.ok()) {
        SITM_ASSIGN_OR_RETURN(const std::int64_t level, (*floor)->AsInt());
        cell.set_floor_level(static_cast<int>(level));
      }
      if (const Result<const JsonValue*> attrs = cell_json.Get("attributes");
          attrs.ok()) {
        SITM_ASSIGN_OR_RETURN(const JsonValue::Object* attr_obj,
                              (*attrs)->AsObject());
        for (const auto& [key, value] : *attr_obj) {
          SITM_ASSIGN_OR_RETURN(const std::string v, value.AsString());
          cell.SetAttribute(key, v);
        }
      }
      SITM_RETURN_IF_ERROR(layer.mutable_graph().AddCell(std::move(cell)));
    }

    SITM_ASSIGN_OR_RETURN(const JsonValue* edges_json,
                          layer_json.Get("edges"));
    SITM_ASSIGN_OR_RETURN(const JsonValue::Array* edges,
                          edges_json->AsArray());
    for (const JsonValue& edge_json : *edges) {
      SITM_ASSIGN_OR_RETURN(const JsonValue* from, edge_json.Get("from"));
      SITM_ASSIGN_OR_RETURN(const std::int64_t from_id, from->AsInt());
      SITM_ASSIGN_OR_RETURN(const JsonValue* to, edge_json.Get("to"));
      SITM_ASSIGN_OR_RETURN(const std::int64_t to_id, to->AsInt());
      SITM_ASSIGN_OR_RETURN(const JsonValue* type, edge_json.Get("type"));
      SITM_ASSIGN_OR_RETURN(const std::string type_name, type->AsString());
      SITM_ASSIGN_OR_RETURN(const indoor::EdgeType edge_type,
                            ParseEdgeType(type_name));
      BoundaryId boundary;
      if (const Result<const JsonValue*> b = edge_json.Get("boundary");
          b.ok()) {
        SITM_ASSIGN_OR_RETURN(const std::int64_t bid, (*b)->AsInt());
        boundary = BoundaryId(bid);
        if (!layer.graph().FindBoundary(boundary).ok()) {
          // Boundary metadata is not serialized; register a stub so the
          // edge reference resolves.
          SITM_RETURN_IF_ERROR(layer.mutable_graph().AddBoundary(
              indoor::CellBoundary(boundary,
                                   "boundary" + std::to_string(bid),
                                   indoor::BoundaryType::kDoor)));
        }
      }
      SITM_RETURN_IF_ERROR(layer.mutable_graph().AddEdge(
          CellId(from_id), CellId(to_id), edge_type, boundary));
    }
    SITM_RETURN_IF_ERROR(graph.AddLayer(std::move(layer)));
  }

  SITM_ASSIGN_OR_RETURN(const JsonValue* joints_json,
                        json.Get("jointEdges"));
  SITM_ASSIGN_OR_RETURN(const JsonValue::Array* joints,
                        joints_json->AsArray());
  for (const JsonValue& joint_json : *joints) {
    SITM_ASSIGN_OR_RETURN(const JsonValue* from, joint_json.Get("from"));
    SITM_ASSIGN_OR_RETURN(const std::int64_t from_id, from->AsInt());
    SITM_ASSIGN_OR_RETURN(const JsonValue* to, joint_json.Get("to"));
    SITM_ASSIGN_OR_RETURN(const std::int64_t to_id, to->AsInt());
    SITM_ASSIGN_OR_RETURN(const JsonValue* relation,
                          joint_json.Get("relation"));
    SITM_ASSIGN_OR_RETURN(const std::string relation_name,
                          relation->AsString());
    SITM_ASSIGN_OR_RETURN(const qsr::TopologicalRelation rel,
                          qsr::ParseTopologicalRelation(relation_name));
    // The converses were exported explicitly; do not re-add them.
    SITM_RETURN_IF_ERROR(graph.AddJointEdge(CellId(from_id), CellId(to_id),
                                            rel, /*add_converse=*/false));
  }
  SITM_RETURN_IF_ERROR(graph.Validate().WithContext("MultiLayerGraphFromJson"));
  return graph;
}

JsonValue TrajectoryToJson(const core::SemanticTrajectory& trajectory) {
  JsonValue::Array trace;
  for (const core::PresenceInterval& p : trajectory.trace().intervals()) {
    JsonValue::Object tuple;
    if (p.transition.valid()) {
      tuple.emplace_back("transition", p.transition.value());
    }
    tuple.emplace_back("cell", p.cell.value());
    tuple.emplace_back("start", p.start().ToString());
    tuple.emplace_back("end", p.end().ToString());
    if (!p.annotations.empty()) {
      tuple.emplace_back("annotations", AnnotationsToJson(p.annotations));
    }
    if (p.inferred) tuple.emplace_back("inferred", true);
    trace.push_back(std::move(tuple));
  }
  return JsonValue::Object{
      {"id", trajectory.id().value()},
      {"object", trajectory.object().value()},
      {"annotations", AnnotationsToJson(trajectory.annotations())},
      {"trace", std::move(trace)}};
}

Result<core::SemanticTrajectory> TrajectoryFromJson(const JsonValue& json) {
  SITM_ASSIGN_OR_RETURN(const JsonValue* id, json.Get("id"));
  SITM_ASSIGN_OR_RETURN(const std::int64_t id_value, id->AsInt());
  SITM_ASSIGN_OR_RETURN(const JsonValue* object, json.Get("object"));
  SITM_ASSIGN_OR_RETURN(const std::int64_t object_value, object->AsInt());
  SITM_ASSIGN_OR_RETURN(const JsonValue* annotations,
                        json.Get("annotations"));
  SITM_ASSIGN_OR_RETURN(const core::AnnotationSet traj_annotations,
                        AnnotationsFromJson(*annotations));
  SITM_ASSIGN_OR_RETURN(const JsonValue* trace_json, json.Get("trace"));
  SITM_ASSIGN_OR_RETURN(const JsonValue::Array* tuples,
                        trace_json->AsArray());
  core::Trace trace;
  for (const JsonValue& tuple : *tuples) {
    core::PresenceInterval p;
    if (const Result<const JsonValue*> transition = tuple.Get("transition");
        transition.ok()) {
      SITM_ASSIGN_OR_RETURN(const std::int64_t t, (*transition)->AsInt());
      p.transition = BoundaryId(t);
    }
    SITM_ASSIGN_OR_RETURN(const JsonValue* cell, tuple.Get("cell"));
    SITM_ASSIGN_OR_RETURN(const std::int64_t cell_value, cell->AsInt());
    p.cell = CellId(cell_value);
    SITM_ASSIGN_OR_RETURN(const JsonValue* start, tuple.Get("start"));
    SITM_ASSIGN_OR_RETURN(const std::string start_str, start->AsString());
    SITM_ASSIGN_OR_RETURN(const Timestamp start_ts,
                          Timestamp::Parse(start_str));
    SITM_ASSIGN_OR_RETURN(const JsonValue* end, tuple.Get("end"));
    SITM_ASSIGN_OR_RETURN(const std::string end_str, end->AsString());
    SITM_ASSIGN_OR_RETURN(const Timestamp end_ts, Timestamp::Parse(end_str));
    SITM_ASSIGN_OR_RETURN(p.interval,
                          qsr::TimeInterval::Make(start_ts, end_ts));
    if (const Result<const JsonValue*> anns = tuple.Get("annotations");
        anns.ok()) {
      SITM_ASSIGN_OR_RETURN(p.annotations, AnnotationsFromJson(**anns));
    }
    if (const Result<const JsonValue*> inferred = tuple.Get("inferred");
        inferred.ok()) {
      SITM_ASSIGN_OR_RETURN(p.inferred, (*inferred)->AsBool());
    }
    trace.Append(std::move(p));
  }
  core::SemanticTrajectory trajectory(TrajectoryId(id_value),
                                      ObjectId(object_value),
                                      std::move(trace), traj_annotations);
  SITM_RETURN_IF_ERROR(trajectory.Validate().WithContext("TrajectoryFromJson"));
  return trajectory;
}

}  // namespace sitm::io
