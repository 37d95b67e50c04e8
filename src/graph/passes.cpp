#include "graph/passes.h"

#include <map>

#include "ckks/context.h"
#include "ckks/matvec.h"
#include "support/errors.h"

namespace madfhe {
namespace graph {

namespace {

/** Redirect every use of `from` (node inputs and graph outputs) to `to`,
 *  excluding node `except`. */
void
rewireUses(Graph& g, NodeRef from, NodeRef to, u32 except)
{
    for (u32 id = 0; id < g.size(); ++id) {
        if (id == except)
            continue;
        for (NodeRef& in : g.node(id).inputs)
            if (in == from)
                in = to;
    }
    auto outs = g.outputs();
    for (NodeRef& o : outs)
        if (o == from)
            o = to;
    g.setOutputs(std::move(outs));
}

/** Infer shapes in topological order (so the levels seen here are
 *  inferShapes' own), first dropping the higher-level operand of every
 *  Add/Sub/Mult to the lower level. */
size_t
alignLevels(Graph& g, const CkksContext& ctx)
{
    size_t inserted = 0;
    for (u32 id : g.topoOrder()) {
        const Node& n = g.node(id);
        if (n.kind == OpKind::Add || n.kind == OpKind::Sub ||
            n.kind == OpKind::Mult) {
            const size_t la = g.metaOf(n.inputs[0]).level;
            const size_t lb = g.metaOf(n.inputs[1]).level;
            if (la != lb) {
                const size_t which = la > lb ? 0 : 1;
                Node drop = makeNode(OpKind::DropToLevel, {n.inputs[which]});
                drop.target_level = std::min(la, lb);
                const u32 did = g.addNode(std::move(drop));
                inferNode(g, did, ctx);
                g.node(id).inputs[which] = NodeRef{did, 0};
                ++inserted;
            }
        }
        inferNode(g, id, ctx);
    }
    return inserted;
}

void
placeRescales(Graph& g, bool merge, PassStats& stats)
{
    const size_t n = g.size();
    for (u32 id = 0; id < n; ++id) {
        Node& node = g.node(id);
        if (node.kind != OpKind::Mult || !node.rescale_after)
            continue;
        node.rescale_after = false;
        if (merge) {
            node.merged = true;
            ++stats.moddowns_merged;
        } else {
            const u32 rid =
                g.addNode(makeNode(OpKind::Rescale, {NodeRef{id, 0}}));
            rewireUses(g, NodeRef{id, 0}, NodeRef{rid, 0}, rid);
            ++stats.rescales_placed;
        }
    }
}

void
hoistRotations(Graph& g, PassStats& stats)
{
    // Group Rotate nodes by source edge; id order keeps steps stable.
    std::map<NodeRef, std::vector<u32>> by_source;
    for (u32 id = 0; id < g.size(); ++id) {
        const Node& n = g.node(id);
        if (n.kind == OpKind::Rotate)
            by_source[n.inputs[0]].push_back(id);
    }
    for (const auto& [src, rotates] : by_source) {
        if (rotates.size() < 2)
            continue;
        Node h = makeNode(OpKind::HoistedRotation, {src});
        h.num_outputs = static_cast<u32>(rotates.size());
        for (u32 rid : rotates)
            h.steps.push_back(g.node(rid).step);
        const u32 hid = g.addNode(std::move(h));
        for (u32 p = 0; p < rotates.size(); ++p)
            rewireUses(g, NodeRef{rotates[p], 0},
                       NodeRef{hid, static_cast<u32>(p)}, hid);
        stats.rotations_hoisted += rotates.size();
        ++stats.hoist_groups;
    }
}

void
fuseMatVec(Graph& g, PassStats& stats)
{
    for (u32 id = 0; id < g.size(); ++id) {
        Node& n = g.node(id);
        if (n.kind != OpKind::PtMatVecMult || n.fused)
            continue;
        // applyFused covers the hoisted single-ModDown-per-giant BSGS
        // configuration; other option combinations keep apply().
        const MatVecOptions& o = n.transform->options();
        if (o.hoist_modup && o.hoist_moddown && !o.double_hoist) {
            n.fused = true;
            ++stats.matvecs_fused;
        }
    }
}

size_t
pruneDead(Graph& g)
{
    const size_t n = g.size();
    std::vector<bool> live(n, false);
    std::vector<u32> work;
    for (const NodeRef& o : g.outputs()) {
        if (!live[o.node]) {
            live[o.node] = true;
            work.push_back(o.node);
        }
    }
    while (!work.empty()) {
        const u32 id = work.back();
        work.pop_back();
        for (const NodeRef& in : g.node(id).inputs) {
            if (!live[in.node]) {
                live[in.node] = true;
                work.push_back(in.node);
            }
        }
    }
    // Inputs are positional run() bindings; never prune them.
    for (u32 id : g.inputIds())
        live[id] = true;

    size_t dead = 0;
    for (bool l : live)
        dead += !l;
    if (dead == 0)
        return 0;

    std::vector<u32> remap(n, 0);
    Graph pruned;
    for (u32 id = 0; id < n; ++id) {
        if (!live[id])
            continue;
        Node copy = g.node(id);
        for (NodeRef& in : copy.inputs)
            in.node = remap[in.node];
        remap[id] = pruned.addNode(std::move(copy));
    }
    auto outs = g.outputs();
    for (NodeRef& o : outs)
        o.node = remap[o.node];
    pruned.setOutputs(std::move(outs));
    g = std::move(pruned);
    return dead;
}

} // namespace

PassStats
runPasses(Graph& g, const CkksContext& ctx, PassOptions opts)
{
    PassStats stats;
    if (opts.align_levels)
        stats.drops_inserted = alignLevels(g, ctx);
    placeRescales(g, opts.merge_moddown, stats);
    if (opts.hoist_rotations)
        hoistRotations(g, stats);
    if (opts.fuse_matvec)
        fuseMatVec(g, stats);
    stats.nodes_pruned = pruneDead(g);
    inferShapes(g, ctx);
    return stats;
}

} // namespace graph
} // namespace madfhe
