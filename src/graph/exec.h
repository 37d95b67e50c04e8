/**
 * @file
 * GraphExecutor: asynchronous topological execution of an evaluation
 * graph over an `EvalBackend` (real CKKS or the plaintext virtual
 * backend — the executor is backend-agnostic, so the same graph runs on
 * a RealBackend or a VirtualBackend, whichever the caller passes in).
 *
 * Scheduling: Kahn waves. Every node whose inputs are ready executes;
 * nodes within a wave run concurrently on the global threadpool
 * (nested evaluator parallelism runs inline, so results stay
 * deterministic and byte-identical at any thread count). Between waves
 * the executor frees values whose last consumer has run — the
 * memory-aware part: peak live ciphertexts track the graph's width,
 * not its size.
 *
 * Telemetry: one span per node ("Graph.<OpKind>"), graph.nodes /
 * graph.waves / graph.values_freed counters, and a graph.node_ns
 * histogram, all under a "GraphExecute" parent span.
 */
#ifndef MADFHE_GRAPH_EXEC_H
#define MADFHE_GRAPH_EXEC_H

#include "ckks/backend.h"
#include "graph/ir.h"

namespace madfhe {

class Bootstrapper;

namespace graph {

struct ExecOptions
{
    /** Run independent nodes of a wave concurrently on the global pool
     *  (results are byte-identical either way). */
    bool parallel = true;
};

class GraphExecutor
{
  public:
    /**
     * Keys are optional: a graph without Mult/KeySwitch nodes needs no
     * rlk, one without rotations no gks. `boot` (real backend only)
     * serves ModRaise nodes.
     */
    GraphExecutor(const EvalBackend& backend,
                  const SwitchingKey* rlk = nullptr,
                  const GaloisKeys* gks = nullptr,
                  const Bootstrapper* boot = nullptr,
                  ExecOptions options = {});

    /**
     * Execute `g` binding `inputs` positionally to the graph's Input
     * nodes; returns the graph outputs in declaration order. Requires
     * runPasses()/inferShapes() to have run (node metadata present and
     * every Mult's rescale placement resolved).
     */
    std::vector<Ciphertext> run(const Graph& g,
                                const std::vector<Ciphertext>& inputs) const;

  private:
    const EvalBackend& backend_;
    const SwitchingKey* rlk_;
    const GaloisKeys* gks_;
    const Bootstrapper* boot_;
    ExecOptions opts_;
};

} // namespace graph
} // namespace madfhe

#endif // MADFHE_GRAPH_EXEC_H
