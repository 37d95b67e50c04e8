#include "graph/ir.h"

#include <set>

#include "ckks/context.h"
#include "ckks/matvec.h"
#include "support/errors.h"

namespace madfhe {
namespace graph {

const char*
opKindName(OpKind kind)
{
    switch (kind) {
    case OpKind::Input: return "Input";
    case OpKind::Add: return "Add";
    case OpKind::Sub: return "Sub";
    case OpKind::Mult: return "Mult";
    case OpKind::Rescale: return "Rescale";
    case OpKind::DropToLevel: return "DropToLevel";
    case OpKind::Rotate: return "Rotate";
    case OpKind::HoistedRotation: return "HoistedRotation";
    case OpKind::MulScalar: return "MulScalar";
    case OpKind::AddScalar: return "AddScalar";
    case OpKind::PtMatVecMult: return "PtMatVecMult";
    case OpKind::KeySwitch: return "KeySwitch";
    case OpKind::ModRaise: return "ModRaise";
    case OpKind::Bootstrap: return "Bootstrap";
    }
    return "Unknown";
}

u32
Graph::addNode(Node n)
{
    const u32 id = static_cast<u32>(nodes_.size());
    if (n.kind == OpKind::Input)
        input_ids_.push_back(id);
    nodes_.push_back(std::move(n));
    return id;
}

std::vector<u32>
Graph::topoOrder() const
{
    const size_t n = nodes_.size();
    std::vector<u32> indeg(n, 0);
    std::vector<std::vector<u32>> consumers(n);
    for (u32 id = 0; id < n; ++id) {
        for (const NodeRef& in : nodes_[id].inputs) {
            MAD_REQUIRE(in.node < n, "graph edge references a missing node");
            ++indeg[id];
            consumers[in.node].push_back(id);
        }
    }
    // Kahn with an ordered ready set: ids ascending, so the order is a
    // pure function of the graph, not of pass insertion history.
    std::set<u32> ready;
    for (u32 id = 0; id < n; ++id)
        if (indeg[id] == 0)
            ready.insert(id);
    std::vector<u32> order;
    order.reserve(n);
    while (!ready.empty()) {
        const u32 id = *ready.begin();
        ready.erase(ready.begin());
        order.push_back(id);
        for (u32 c : consumers[id])
            if (--indeg[c] == 0)
                ready.insert(c);
    }
    MAD_REQUIRE(order.size() == n, "graph contains a cycle");
    return order;
}

const ValueMeta&
Graph::metaOf(NodeRef ref) const
{
    const Node& nd = node(ref.node);
    MAD_CHECK(ref.port < nd.meta.size(),
              "edge metadata missing: run inferShapes first");
    return nd.meta[ref.port];
}

Node
makeNode(OpKind kind, std::vector<NodeRef> inputs)
{
    Node n;
    n.kind = kind;
    n.inputs = std::move(inputs);
    return n;
}

NodeRef
GraphBuilder::append(Node n)
{
    const u32 id = g_.addNode(std::move(n));
    return NodeRef{id, 0};
}

NodeRef
GraphBuilder::input(size_t level, double scale)
{
    MAD_REQUIRE(level >= 1, "graph input needs at least one limb");
    Node n = makeNode(OpKind::Input);
    n.input_shape = {level, scale};
    return append(std::move(n));
}

NodeRef
GraphBuilder::add(NodeRef a, NodeRef b)
{
    return append(makeNode(OpKind::Add, {a, b}));
}

NodeRef
GraphBuilder::sub(NodeRef a, NodeRef b)
{
    return append(makeNode(OpKind::Sub, {a, b}));
}

NodeRef
GraphBuilder::mul(NodeRef a, NodeRef b)
{
    Node n = makeNode(OpKind::Mult, {a, b});
    n.rescale_after = true;
    return append(std::move(n));
}

NodeRef
GraphBuilder::mulNoRescale(NodeRef a, NodeRef b)
{
    return append(makeNode(OpKind::Mult, {a, b}));
}

NodeRef
GraphBuilder::rescale(NodeRef a)
{
    return append(makeNode(OpKind::Rescale, {a}));
}

NodeRef
GraphBuilder::dropToLevel(NodeRef a, size_t level)
{
    Node n = makeNode(OpKind::DropToLevel, {a});
    n.target_level = level;
    return append(std::move(n));
}

NodeRef
GraphBuilder::rotate(NodeRef a, int step)
{
    Node n = makeNode(OpKind::Rotate, {a});
    n.step = step;
    return append(std::move(n));
}

std::vector<NodeRef>
GraphBuilder::rotateHoisted(NodeRef a, const std::vector<int>& steps)
{
    Node n = makeNode(OpKind::HoistedRotation, {a});
    n.steps = steps;
    n.num_outputs = static_cast<u32>(steps.size());
    const NodeRef first = append(std::move(n));
    std::vector<NodeRef> refs;
    refs.reserve(steps.size());
    for (u32 p = 0; p < steps.size(); ++p)
        refs.push_back(NodeRef{first.node, p});
    return refs;
}

NodeRef
GraphBuilder::mulScalar(NodeRef a, double scalar)
{
    Node n = makeNode(OpKind::MulScalar, {a});
    n.scalar = scalar;
    return append(std::move(n));
}

NodeRef
GraphBuilder::addScalar(NodeRef a, double scalar)
{
    Node n = makeNode(OpKind::AddScalar, {a});
    n.scalar = scalar;
    return append(std::move(n));
}

NodeRef
GraphBuilder::matVec(NodeRef a, const LinearTransform* t)
{
    MAD_REQUIRE(t != nullptr, "PtMatVecMult node needs a transform");
    Node n = makeNode(OpKind::PtMatVecMult, {a});
    n.transform = t;
    return append(std::move(n));
}

NodeRef
GraphBuilder::keySwitch(NodeRef a)
{
    return append(makeNode(OpKind::KeySwitch, {a}));
}

NodeRef
GraphBuilder::modRaise(NodeRef a)
{
    return append(makeNode(OpKind::ModRaise, {a}));
}

NodeRef
GraphBuilder::bootstrap(NodeRef a)
{
    return append(makeNode(OpKind::Bootstrap, {a}));
}

void
GraphBuilder::output(NodeRef ref)
{
    auto outs = g_.outputs();
    outs.push_back(ref);
    g_.setOutputs(std::move(outs));
}

void
GraphBuilder::outputs(const std::vector<NodeRef>& refs)
{
    for (NodeRef r : refs)
        output(r);
}

Graph
GraphBuilder::build()
{
    MAD_REQUIRE(!g_.outputs().empty(), "graph has no outputs");
    return std::move(g_);
}

namespace {

/** The output shape of node `n`; every port of a node carries it. */
ValueMeta
transfer(const Graph& g, const Node& n, const CkksContext& ctx)
{
    auto in = [&](size_t i) { return g.metaOf(n.inputs.at(i)); };
    switch (n.kind) {
    case OpKind::Input:
        return n.input_shape;
    case OpKind::Add:
    case OpKind::Sub:
        return shape::add(in(0), in(1));
    case OpKind::Mult:
        return n.rescale_after || n.merged
                   ? shape::mul(in(0), in(1), ctx)
                   : shape::mulNoRescale(in(0), in(1));
    case OpKind::Rescale:
        return shape::rescale(in(0), ctx);
    case OpKind::DropToLevel:
        return shape::dropToLevel(in(0), n.target_level);
    case OpKind::HoistedRotation:
        MAD_REQUIRE(n.num_outputs == n.steps.size(),
                    "hoisted rotation port/step count mismatch");
        return in(0);
    case OpKind::Rotate:
    case OpKind::KeySwitch:
    case OpKind::AddScalar:
        return in(0);
    case OpKind::MulScalar:
        return shape::mulScalar(in(0), ctx);
    case OpKind::PtMatVecMult:
        MAD_REQUIRE(n.transform != nullptr,
                    "PtMatVecMult node needs a transform");
        return shape::matVec(in(0), n.transform->ptScale(), ctx);
    case OpKind::ModRaise:
        MAD_REQUIRE(in(0).level == 1,
                    "ModRaise expects an exhausted (1-limb) ciphertext");
        return {ctx.maxLevel(), in(0).scale};
    case OpKind::Bootstrap:
        return {ctx.maxLevel(), ctx.scale()};
    }
    throw InvariantError("unhandled OpKind", __FILE__, __LINE__);
}

} // namespace

void
inferNode(Graph& g, u32 id, const CkksContext& ctx)
{
    Node& n = g.node(id);
    n.meta.assign(n.num_outputs, transfer(g, n, ctx));
}

void
inferShapes(Graph& g, const CkksContext& ctx)
{
    for (u32 id : g.topoOrder())
        inferNode(g, id, ctx);
}

} // namespace graph
} // namespace madfhe
