/**
 * @file
 * Evaluation-graph IR: a small DAG whose ops are the paper's Table 2
 * primitives (Mult, Rotate, Rescale, ModRaise, KeySwitch, PtMatVecMult,
 * Bootstrap) plus the scalar/level utilities the app schedules need.
 * Every edge carries (level, scale) metadata, computed by `inferShapes`
 * with the `ckks/shape` transitions the Evaluator itself runs (same
 * UserError messages on invalid transitions), so a graph that fails
 * shape inference would have thrown identically on the imperative path.
 *
 * The IR is deliberately minimal: a flat node vector in builder
 * (topological) order, multi-output nodes for hoisted rotations, and a
 * `GraphBuilder` whose methods mirror the `Evaluator`/`EvalBackend`
 * call surface one-to-one. Scheduling decisions (rescale placement,
 * ModDown merging, rotation hoisting, matvec limb fusion) live in
 * graph/passes.h; execution over an `EvalBackend` lives in
 * graph/exec.h.
 */
#ifndef MADFHE_GRAPH_IR_H
#define MADFHE_GRAPH_IR_H

#include <vector>

#include "ckks/shape.h"

namespace madfhe {

class LinearTransform;

namespace graph {

enum class OpKind : u8
{
    Input = 0,       ///< graph parameter (bound at execution time)
    Add,             ///< strict add (levels equal, scales within tol)
    Sub,             ///< strict subtract
    Mult,            ///< ciphertext tensor + relinearize (Table 2 Mult)
    Rescale,         ///< divide by q_top, drop one limb (Table 2 Rescale)
    DropToLevel,     ///< truncate limbs to a target level
    Rotate,          ///< automorph + KeySwitch (Table 2 Rotate)
    HoistedRotation, ///< N same-source rotations over one Decomp+ModUp
    MulScalar,       ///< scalar product folded into one rescale
    AddScalar,       ///< scalar addition (no level consumed)
    PtMatVecMult,    ///< BSGS diagonal matvec (Table 2 PtMatVecMult)
    KeySwitch,       ///< bare hybrid key switch of c1 (Table 2 KeySwitch)
    ModRaise,        ///< reinterpret a 1-limb ct over the full chain
    Bootstrap,       ///< full bootstrap back to max level
};

const char* opKindName(OpKind kind);

/** An edge source: output `port` of node `node`. */
struct NodeRef
{
    u32 node = 0;
    u32 port = 0;

    bool operator==(const NodeRef& o) const
    {
        return node == o.node && port == o.port;
    }
    bool operator<(const NodeRef& o) const
    {
        return node != o.node ? node < o.node : port < o.port;
    }
};

/** Per-edge ciphertext metadata (the paper's l and Delta). */
using ValueMeta = shape::Shape;

struct Node
{
    OpKind kind = OpKind::Input;
    std::vector<NodeRef> inputs;
    u32 num_outputs = 1;

    // --- per-kind attributes (sparse; only the relevant ones are set) ---
    ValueMeta input_shape;   ///< Input: declared level and scale
    int step = 0;            ///< Rotate: slot rotation amount
    std::vector<int> steps;  ///< HoistedRotation: one per output port
    size_t target_level = 0; ///< DropToLevel
    double scalar = 0.0;     ///< MulScalar / AddScalar
    /** PtMatVecMult: non-owning; must outlive graph execution. */
    const LinearTransform* transform = nullptr;
    /** Mult built by GraphBuilder::mul(): the product still owes a
     *  rescale. The pass pipeline resolves it into either `merged` or an
     *  explicit Rescale node; the executor refuses to run it unresolved. */
    bool rescale_after = false;
    /** Mult: execute the merged-ModDown path (relin + rescale fused). */
    bool merged = false;
    /** PtMatVecMult: use the limb-fused BSGS accumulation. */
    bool fused = false;

    /** Per-output metadata, filled by inferShapes(). */
    std::vector<ValueMeta> meta;
};

/** A node of `kind` over `inputs`, every attribute at its default. */
Node makeNode(OpKind kind, std::vector<NodeRef> inputs = {});

class Graph
{
  public:
    const std::vector<Node>& nodes() const { return nodes_; }
    Node& node(u32 id) { return nodes_.at(id); }
    const Node& node(u32 id) const { return nodes_.at(id); }
    size_t size() const { return nodes_.size(); }

    /** Graph results, in the order run() returns them. */
    const std::vector<NodeRef>& outputs() const { return outputs_; }
    void setOutputs(std::vector<NodeRef> outs) { outputs_ = std::move(outs); }

    /** Input nodes in declaration order (the run() binding order). */
    const std::vector<u32>& inputIds() const { return input_ids_; }
    size_t numInputs() const { return input_ids_.size(); }

    /** Append a node; records Input ids. Returns the new node id. */
    u32 addNode(Node n);

    /**
     * Kahn topological order, ids ascending within each indegree wave —
     * deterministic regardless of how passes appended nodes.
     */
    std::vector<u32> topoOrder() const;

    /** Metadata of an edge source (inferShapes must have run). */
    const ValueMeta& metaOf(NodeRef ref) const;

  private:
    std::vector<Node> nodes_;
    std::vector<NodeRef> outputs_;
    std::vector<u32> input_ids_;
};

/**
 * Fluent graph construction mirroring the Evaluator call surface.
 * `mul` builds a rescale-owing Mult the pass pipeline later resolves;
 * `mulNoRescale` builds the raw tensor product. Methods return the
 * NodeRef of the produced value.
 */
class GraphBuilder
{
  public:
    NodeRef input(size_t level, double scale);
    NodeRef add(NodeRef a, NodeRef b);
    NodeRef sub(NodeRef a, NodeRef b);
    /** Mult + pending rescale (Table 2 Mult semantics). */
    NodeRef mul(NodeRef a, NodeRef b);
    /** Raw tensor product at full scale (caller owes the rescale). */
    NodeRef mulNoRescale(NodeRef a, NodeRef b);
    NodeRef square(NodeRef a) { return mul(a, a); }
    NodeRef rescale(NodeRef a);
    NodeRef dropToLevel(NodeRef a, size_t level);
    NodeRef rotate(NodeRef a, int step);
    /** Explicit hoisted rotation group; port i carries steps[i]. */
    std::vector<NodeRef> rotateHoisted(NodeRef a,
                                       const std::vector<int>& steps);
    NodeRef mulScalar(NodeRef a, double scalar);
    NodeRef addScalar(NodeRef a, double scalar);
    NodeRef matVec(NodeRef a, const LinearTransform* t);
    NodeRef keySwitch(NodeRef a);
    NodeRef modRaise(NodeRef a);
    NodeRef bootstrap(NodeRef a);

    void output(NodeRef ref);
    void outputs(const std::vector<NodeRef>& refs);

    /** Finish construction (builder is spent afterwards). */
    Graph build();

  private:
    NodeRef append(Node n);

    Graph g_;
};

/** Fill node `id`'s metadata from its (already inferred) inputs';
 *  invalid transitions raise the shape module's UserErrors. */
void inferNode(Graph& g, u32 id, const CkksContext& ctx);

/** inferNode over every node in topological order. Idempotent; passes
 *  re-run it after rewriting the graph. */
void inferShapes(Graph& g, const CkksContext& ctx);

} // namespace graph
} // namespace madfhe

#endif // MADFHE_GRAPH_IR_H
