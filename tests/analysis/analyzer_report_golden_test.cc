// Golden analyzer reports: for every statistics source the counting-safety
// and cost passes can draw on (caller database, program facts, a mix of
// both, unusable relations) and every strongly linear query form, the
// verdict table, the cost table and each pass-4/5 diagnostic (code, span,
// message) are pinned byte for byte. Whenever both passes computed the
// magic graph, they must agree on its size.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "datalog/parser.h"

namespace mcm::analysis {
namespace {

using dl::DiagCode;

/// A relation stored in the caller's database.
struct Stored {
  const char* name;
  uint32_t arity;
  std::vector<Tuple> rows;
};

struct Case {
  const char* name;
  const char* source;
  /// Null: no caller database at all.
  const std::vector<Stored>* stored;
  const char* golden;
};

// The canonical rule pair, spliced into the case sources below.
#define CSL_RULES \
  "p(X, Y) :- e(X, Y).\np(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).\n"

// Regular: a chain. Acyclic non-regular: node 3 is reached at distances 1
// and 2. Cyclic: 2 -> 3 -> 2.
const std::vector<Stored> kRegular = {
    {"l", 2, {{1, 2}, {2, 3}}},
    {"e", 2, {{3, 7}, {2, 8}}},
    {"r", 2, {{9, 7}, {10, 8}, {11, 9}}},
};
const std::vector<Stored> kAcyclic = {
    {"l", 2, {{1, 2}, {2, 3}, {1, 3}, {3, 4}}},
    {"e", 2, {{4, 40}, {3, 30}}},
    {"r", 2, {{50, 40}, {60, 50}, {31, 30}}},
};
const std::vector<Stored> kCyclic = {
    {"l", 2, {{1, 2}, {2, 3}, {3, 2}, {3, 4}}},
    {"e", 2, {{4, 40}, {2, 20}}},
    {"r", 2, {{50, 40}, {21, 20}}},
};
const std::vector<Stored> kLOnly = {
    {"l", 2, {{1, 2}, {2, 3}, {1, 3}, {3, 4}}},
};
const std::vector<Stored> kEROnly = {
    {"e", 2, {{4, 40}, {3, 30}}},
    {"r", 2, {{50, 40}, {60, 50}, {31, 30}}},
};
const std::vector<Stored> kTernaryL = {
    {"l", 3, {{1, 2, 0}, {2, 3, 0}}},
    {"e", 2, {{3, 7}}},
    {"r", 2, {{9, 7}}},
};
const std::vector<Stored> kEmptyL = {
    {"l", 2, {}},
    {"e", 2, {{3, 7}}},
    {"r", 2, {{9, 7}}},
};
// L stored as the chain 0 -> 1 -> 2; a program fact closes it into a cycle.
const std::vector<Stored> kChainL = {
    {"l", 2, {{0, 1}, {1, 2}}},
    {"e", 2, {{2, 20}}},
    {"r", 2, {{21, 20}}},
};
// A 2-cycle through the query constant, copied into L by a program rule.
const std::vector<Stored> kBaseCycle = {
    {"base", 2, {{0, 1}, {1, 0}}},
};
const std::vector<Stored> kComposedData = {
    {"a", 2, {{1, 5}, {2, 6}}},
    {"b", 2, {{5, 2}, {6, 3}}},
    {"l", 2, {{1, 2}, {2, 3}, {1, 3}}},
    {"e", 2, {{3, 30}, {2, 20}}},
    {"r", 2, {{31, 30}}},
    {"c", 2, {{21, 8}, {31, 9}}},
    {"d", 2, {{8, 20}, {9, 30}}},
};

// clang-format off
const Case kCases[] = {
    {"db_regular", CSL_RULES "p(1, Y)?\n",
     &kRegular,
     "counting-safety verdicts (canonical strongly linear; magic graph over 'l': regular, 3 node(s) / 2 arc(s), 0 recurring):\n"
     "  counting          safe    magic graph is acyclic: every index set I_b is finite\n"
     "  magic_sets        safe    safe on every instance (no counting indices involved)\n"
     "  mc/basic/ind      safe    regular graph: counting covers the whole magic set\n"
     "  mc/basic/int      safe    regular graph: counting covers the whole magic set\n"
     "  mc/single/ind     safe    regular graph: i_x = +inf, counting covers the whole magic set\n"
     "  mc/single/int     safe    regular graph: i_x = +inf, counting covers the whole magic set\n"
     "  mc/multiple/ind   safe    regular graph: every node single, counting covers everything\n"
     "  mc/multiple/int   safe    regular graph: every node single, counting covers everything\n"
     "  mc/recurring/ind  safe    regular graph: counting covers everything\n"
     "  mc/recurring/int  safe    regular graph: counting covers everything\n"
     "cost model (n_L=3, m_L=2, m_R=3, class=regular):\n"
     "  method            verdict     predicted   worst-case  formula\n"
     "  counting          safe               11           11  m_L + n_L*m_R\n"
     "  magic_sets        safe                6            6  m_L*m_R\n"
     "  mc/basic/ind      safe               13           11  m_L + n_L*m_R\n"
     "  mc/basic/int      safe               13           11  m_L + n_L*m_R\n"
     "  mc/single/ind     safe               13           11  m_L + n_L*m_R\n"
     "  mc/single/int     safe               13           11  m_L + n_L*m_R\n"
     "  mc/multiple/ind   safe               13           11  m_L + n_L*m_R\n"
     "  mc/multiple/int   safe               13           11  m_L + n_L*m_R\n"
     "  mc/recurring/ind  safe               21           11  m_L + n_L*m_R\n"
     "  mc/recurring/int  safe               21           11  m_L + n_L*m_R\n"
     "ranking (by predicted cost): magic_sets < counting < mc/basic/int < mc/basic/ind < mc/single/int < mc/single/ind < mc/multiple/int < mc/multiple/ind < mc/recurring/int < mc/recurring/ind\n"
     "dominance (Figure 3): counting <= magic_sets [VIOLATED], mc/basic/ind <= magic_sets [VIOLATED], mc/basic/int <= magic_sets [VIOLATED]\n"
     "3:1: note: query is canonical strongly linear: CSL{P=p E=e L=l R=r a=1} [N501]\n"
     "3:1: note: cost[counting]: predicted 11, worst-case 11 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "3:1: note: cost[magic_sets]: predicted 6, worst-case 6 tuple retrievals (m_L*m_R) [N601]\n"
     "3:1: note: cost[mc/basic/ind]: predicted 13, worst-case 11 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "3:1: note: cost[mc/basic/int]: predicted 13, worst-case 11 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "3:1: note: cost[mc/single/ind]: predicted 13, worst-case 11 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "3:1: note: cost[mc/single/int]: predicted 13, worst-case 11 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "3:1: note: cost[mc/multiple/ind]: predicted 13, worst-case 11 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "3:1: note: cost[mc/multiple/int]: predicted 13, worst-case 11 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "3:1: note: cost[mc/recurring/ind]: predicted 21, worst-case 11 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "3:1: note: cost[mc/recurring/int]: predicted 21, worst-case 11 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "3:1: note: cost model over 'l': n_L=3 m_L=2 m_R=3, regular; cheapest safe method: magic_sets (predicted 6) [N602]\n"},
    {"db_acyclic", CSL_RULES "p(1, Y)?\n",
     &kAcyclic,
     "counting-safety verdicts (canonical strongly linear; magic graph over 'l': acyclic, 4 node(s) / 4 arc(s), 0 recurring):\n"
     "  counting          safe    magic graph is acyclic: every index set I_b is finite\n"
     "  magic_sets        safe    safe on every instance (no counting indices involved)\n"
     "  mc/basic/ind      safe    non-regular graph detected: falls back to RM = MS (pure magic)\n"
     "  mc/basic/int      safe    non-regular graph detected: falls back to RM = MS (pure magic)\n"
     "  mc/single/ind     safe    counting restricted to indices below i_x; rest to RM\n"
     "  mc/single/int     safe    counting restricted to indices below i_x; rest to RM\n"
     "  mc/multiple/ind   safe    counting keeps single nodes; multiple nodes to RM\n"
     "  mc/multiple/int   safe    counting keeps single nodes; multiple nodes to RM\n"
     "  mc/recurring/ind  safe    counting keeps all finite index sets (single + multiple nodes)\n"
     "  mc/recurring/int  safe    counting keeps all finite index sets (single + multiple nodes)\n"
     "cost model (n_L=4, m_L=4, m_R=3, class=acyclic; n_s=2 n_m=4 n_s^=1):\n"
     "  method            verdict     predicted   worst-case  formula\n"
     "  counting          safe               17           28  n_L*m_L + n_L*m_R\n"
     "  magic_sets        safe               12           12  m_L*m_R\n"
     "  mc/basic/ind      safe               16           12  m_L*m_R\n"
     "  mc/basic/int      safe               16           12  m_L*m_R\n"
     "  mc/single/ind     safe               21           19  m_L + (m_L - m_j^)*m_R + n_s^*m_R\n"
     "  mc/single/int     safe               21           19  m_L + (m_L - m_s^)*m_R + n_s^*m_R\n"
     "  mc/multiple/ind   safe               16           16  m_L + (m_L - m_i)*m_R + n_i*m_R\n"
     "  mc/multiple/int   safe               22           19  m_L + (m_L - m_s)*m_R + n_s*m_R\n"
     "  mc/recurring/ind  safe               37           28  n_L*m_L + n_L*m_R\n"
     "  mc/recurring/int  safe               37           28  n_L*m_L + n_L*m_R\n"
     "ranking (by predicted cost): magic_sets < mc/basic/int < mc/basic/ind < mc/multiple/ind < counting < mc/single/int < mc/single/ind < mc/multiple/int < mc/recurring/int < mc/recurring/ind\n"
     "dominance (Figure 3): counting <~ magic_sets [VIOLATED], mc/basic/ind <= magic_sets [VIOLATED], mc/basic/int <= magic_sets [VIOLATED], mc/single/ind <= mc/basic/ind [VIOLATED], mc/single/int <= mc/single/ind, mc/multiple/ind <= mc/single/ind, mc/multiple/int <= mc/single/int [VIOLATED], mc/multiple/int <= mc/multiple/ind [VIOLATED], mc/recurring/int <= mc/recurring/ind, mc/recurring/ind <~ mc/multiple/ind [VIOLATED], mc/recurring/int <~ mc/multiple/int [VIOLATED]\n"
     "3:1: note: query is canonical strongly linear: CSL{P=p E=e L=l R=r a=1} [N501]\n"
     "3:1: note: cost[counting]: predicted 17, worst-case 28 tuple retrievals (n_L*m_L + n_L*m_R) [N601]\n"
     "3:1: note: cost[magic_sets]: predicted 12, worst-case 12 tuple retrievals (m_L*m_R) [N601]\n"
     "3:1: note: cost[mc/basic/ind]: predicted 16, worst-case 12 tuple retrievals (m_L*m_R) [N601]\n"
     "3:1: note: cost[mc/basic/int]: predicted 16, worst-case 12 tuple retrievals (m_L*m_R) [N601]\n"
     "3:1: note: cost[mc/single/ind]: predicted 21, worst-case 19 tuple retrievals (m_L + (m_L - m_j^)*m_R + n_s^*m_R) [N601]\n"
     "3:1: note: cost[mc/single/int]: predicted 21, worst-case 19 tuple retrievals (m_L + (m_L - m_s^)*m_R + n_s^*m_R) [N601]\n"
     "3:1: note: cost[mc/multiple/ind]: predicted 16, worst-case 16 tuple retrievals (m_L + (m_L - m_i)*m_R + n_i*m_R) [N601]\n"
     "3:1: note: cost[mc/multiple/int]: predicted 22, worst-case 19 tuple retrievals (m_L + (m_L - m_s)*m_R + n_s*m_R) [N601]\n"
     "3:1: note: cost[mc/recurring/ind]: predicted 37, worst-case 28 tuple retrievals (n_L*m_L + n_L*m_R) [N601]\n"
     "3:1: note: cost[mc/recurring/int]: predicted 37, worst-case 28 tuple retrievals (n_L*m_L + n_L*m_R) [N601]\n"
     "3:1: note: cost model over 'l': n_L=4 m_L=4 m_R=3, acyclic; cheapest safe method: magic_sets (predicted 12) [N602]\n"},
    {"db_cyclic", CSL_RULES "p(1, Y)?\n",
     &kCyclic,
     "counting-safety verdicts (canonical strongly linear; magic graph over 'l': cyclic, 4 node(s) / 4 arc(s), 3 recurring):\n"
     "  counting          UNSAFE  magic graph is cyclic (3 recurring node(s)): the counting-set fixpoint diverges; Theorem 1(b) cannot hold\n"
     "  magic_sets        safe    safe on every instance (no counting indices involved)\n"
     "  mc/basic/ind      safe    non-regular graph detected: falls back to RM = MS (pure magic)\n"
     "  mc/basic/int      safe    non-regular graph detected: falls back to RM = MS (pure magic)\n"
     "  mc/single/ind     safe    counting restricted to indices below i_x; recurring nodes to RM\n"
     "  mc/single/int     safe    counting restricted to indices below i_x; recurring nodes to RM\n"
     "  mc/multiple/ind   safe    counting keeps single nodes; recurring/multiple nodes to RM\n"
     "  mc/multiple/int   safe    counting keeps single nodes; recurring/multiple nodes to RM\n"
     "  mc/recurring/ind  safe    recurring nodes to RM; counting keeps the finite index sets\n"
     "  mc/recurring/int  safe    recurring nodes to RM; counting keeps the finite index sets\n"
     "cost model (n_L=4, m_L=4, m_R=2, class=cyclic; n_s=1 n_m=1 n_s^=1):\n"
     "  method            verdict     predicted   worst-case  formula\n"
     "  counting          UNSAFE            inf          inf  infinite (cyclic magic graph)\n"
     "  magic_sets        safe                8            8  m_L*m_R\n"
     "  mc/basic/ind      safe               12            8  m_L*m_R\n"
     "  mc/basic/int      safe               12            8  m_L*m_R\n"
     "  mc/single/ind     safe               15           14  m_L + (m_L - m_j^)*m_R + n_s^*m_R\n"
     "  mc/single/int     safe               15           14  m_L + (m_L - m_s^)*m_R + n_s^*m_R\n"
     "  mc/multiple/ind   safe               12           12  m_L + (m_L - m_i)*m_R + n_i*m_R\n"
     "  mc/multiple/int   safe               15           14  m_L + (m_L - m_s)*m_R + n_s*m_R\n"
     "  mc/recurring/ind  safe               24           24  n_L*m_L + (m_L - m_m^)*m_R + n_m^*m_R\n"
     "  mc/recurring/int  safe               27           26  n_L*m_L + (m_L - m_m)*m_R + n_m*m_R\n"
     "ranking (by predicted cost): magic_sets < mc/basic/int < mc/basic/ind < mc/multiple/ind < mc/single/int < mc/single/ind < mc/multiple/int < mc/recurring/ind < mc/recurring/int\n"
     "dominance (Figure 3): mc/basic/ind <= magic_sets [VIOLATED], mc/basic/int <= magic_sets [VIOLATED], mc/single/ind <= mc/basic/ind [VIOLATED], mc/single/int <= mc/single/ind, mc/multiple/ind <= mc/single/ind, mc/multiple/int <= mc/single/int, mc/multiple/int <= mc/multiple/ind [VIOLATED], mc/recurring/int <= mc/recurring/ind [VIOLATED], mc/recurring/ind <~ mc/multiple/ind [VIOLATED], mc/recurring/int <~ mc/multiple/int [VIOLATED], mc/basic/ind <= counting\n"
     "2:1: warning: pure counting is unsafe for this instance: magic graph over 'l' is cyclic (3 of 4 node(s) recurring); unsafe methods: counting (independent and integrated); safe alternatives: magic_sets and every magic counting method (mc/basic..mc/recurring routes recurring nodes to the magic side) [W401]\n"
     "3:1: note: query is canonical strongly linear: CSL{P=p E=e L=l R=r a=1} [N501]\n"
     "3:1: note: cost[counting]: divergent (cyclic magic graph) [N601]\n"
     "3:1: note: cost[magic_sets]: predicted 8, worst-case 8 tuple retrievals (m_L*m_R) [N601]\n"
     "3:1: note: cost[mc/basic/ind]: predicted 12, worst-case 8 tuple retrievals (m_L*m_R) [N601]\n"
     "3:1: note: cost[mc/basic/int]: predicted 12, worst-case 8 tuple retrievals (m_L*m_R) [N601]\n"
     "3:1: note: cost[mc/single/ind]: predicted 15, worst-case 14 tuple retrievals (m_L + (m_L - m_j^)*m_R + n_s^*m_R) [N601]\n"
     "3:1: note: cost[mc/single/int]: predicted 15, worst-case 14 tuple retrievals (m_L + (m_L - m_s^)*m_R + n_s^*m_R) [N601]\n"
     "3:1: note: cost[mc/multiple/ind]: predicted 12, worst-case 12 tuple retrievals (m_L + (m_L - m_i)*m_R + n_i*m_R) [N601]\n"
     "3:1: note: cost[mc/multiple/int]: predicted 15, worst-case 14 tuple retrievals (m_L + (m_L - m_s)*m_R + n_s*m_R) [N601]\n"
     "3:1: note: cost[mc/recurring/ind]: predicted 24, worst-case 24 tuple retrievals (n_L*m_L + (m_L - m_m^)*m_R + n_m^*m_R) [N601]\n"
     "3:1: note: cost[mc/recurring/int]: predicted 27, worst-case 26 tuple retrievals (n_L*m_L + (m_L - m_m)*m_R + n_m*m_R) [N601]\n"
     "3:1: note: cost model over 'l': n_L=4 m_L=4 m_R=2, cyclic; cheapest safe method: magic_sets (predicted 8) [N602]\n"},
    {"program_facts",
     "l(1, 2). l(2, 3). l(1, 3). l(3, 4).\n"
     "e(4, 40). e(3, 30).\n"
     "r(50, 40). r(60, 50). r(31, 30).\n"
     CSL_RULES "p(1, Y)?\n",
     nullptr,
     "counting-safety verdicts (canonical strongly linear; magic graph over 'l': acyclic, 4 node(s) / 4 arc(s), 0 recurring):\n"
     "  counting          safe    magic graph is acyclic: every index set I_b is finite\n"
     "  magic_sets        safe    safe on every instance (no counting indices involved)\n"
     "  mc/basic/ind      safe    non-regular graph detected: falls back to RM = MS (pure magic)\n"
     "  mc/basic/int      safe    non-regular graph detected: falls back to RM = MS (pure magic)\n"
     "  mc/single/ind     safe    counting restricted to indices below i_x; rest to RM\n"
     "  mc/single/int     safe    counting restricted to indices below i_x; rest to RM\n"
     "  mc/multiple/ind   safe    counting keeps single nodes; multiple nodes to RM\n"
     "  mc/multiple/int   safe    counting keeps single nodes; multiple nodes to RM\n"
     "  mc/recurring/ind  safe    counting keeps all finite index sets (single + multiple nodes)\n"
     "  mc/recurring/int  safe    counting keeps all finite index sets (single + multiple nodes)\n"
     "cost model (n_L=4, m_L=4, m_R=3, class=acyclic; n_s=2 n_m=4 n_s^=1):\n"
     "  method            verdict     predicted   worst-case  formula\n"
     "  counting          safe               17           28  n_L*m_L + n_L*m_R\n"
     "  magic_sets        safe               12           12  m_L*m_R\n"
     "  mc/basic/ind      safe               16           12  m_L*m_R\n"
     "  mc/basic/int      safe               16           12  m_L*m_R\n"
     "  mc/single/ind     safe               21           19  m_L + (m_L - m_j^)*m_R + n_s^*m_R\n"
     "  mc/single/int     safe               21           19  m_L + (m_L - m_s^)*m_R + n_s^*m_R\n"
     "  mc/multiple/ind   safe               16           16  m_L + (m_L - m_i)*m_R + n_i*m_R\n"
     "  mc/multiple/int   safe               22           19  m_L + (m_L - m_s)*m_R + n_s*m_R\n"
     "  mc/recurring/ind  safe               37           28  n_L*m_L + n_L*m_R\n"
     "  mc/recurring/int  safe               37           28  n_L*m_L + n_L*m_R\n"
     "ranking (by predicted cost): magic_sets < mc/basic/int < mc/basic/ind < mc/multiple/ind < counting < mc/single/int < mc/single/ind < mc/multiple/int < mc/recurring/int < mc/recurring/ind\n"
     "dominance (Figure 3): counting <~ magic_sets [VIOLATED], mc/basic/ind <= magic_sets [VIOLATED], mc/basic/int <= magic_sets [VIOLATED], mc/single/ind <= mc/basic/ind [VIOLATED], mc/single/int <= mc/single/ind, mc/multiple/ind <= mc/single/ind, mc/multiple/int <= mc/single/int [VIOLATED], mc/multiple/int <= mc/multiple/ind [VIOLATED], mc/recurring/int <= mc/recurring/ind, mc/recurring/ind <~ mc/multiple/ind [VIOLATED], mc/recurring/int <~ mc/multiple/int [VIOLATED]\n"
     "6:1: note: query is canonical strongly linear: CSL{P=p E=e L=l R=r a=1} [N501]\n"
     "6:1: note: cost[counting]: predicted 17, worst-case 28 tuple retrievals (n_L*m_L + n_L*m_R) [N601]\n"
     "6:1: note: cost[magic_sets]: predicted 12, worst-case 12 tuple retrievals (m_L*m_R) [N601]\n"
     "6:1: note: cost[mc/basic/ind]: predicted 16, worst-case 12 tuple retrievals (m_L*m_R) [N601]\n"
     "6:1: note: cost[mc/basic/int]: predicted 16, worst-case 12 tuple retrievals (m_L*m_R) [N601]\n"
     "6:1: note: cost[mc/single/ind]: predicted 21, worst-case 19 tuple retrievals (m_L + (m_L - m_j^)*m_R + n_s^*m_R) [N601]\n"
     "6:1: note: cost[mc/single/int]: predicted 21, worst-case 19 tuple retrievals (m_L + (m_L - m_s^)*m_R + n_s^*m_R) [N601]\n"
     "6:1: note: cost[mc/multiple/ind]: predicted 16, worst-case 16 tuple retrievals (m_L + (m_L - m_i)*m_R + n_i*m_R) [N601]\n"
     "6:1: note: cost[mc/multiple/int]: predicted 22, worst-case 19 tuple retrievals (m_L + (m_L - m_s)*m_R + n_s*m_R) [N601]\n"
     "6:1: note: cost[mc/recurring/ind]: predicted 37, worst-case 28 tuple retrievals (n_L*m_L + n_L*m_R) [N601]\n"
     "6:1: note: cost[mc/recurring/int]: predicted 37, worst-case 28 tuple retrievals (n_L*m_L + n_L*m_R) [N601]\n"
     "6:1: note: cost model over 'l': n_L=4 m_L=4 m_R=3, acyclic; cheapest safe method: magic_sets (predicted 12) [N602]\n"},
    {"program_facts_constant_outside_l",
     "l(1, 2). l(2, 3).\n"
     "e(ann, 40). e(3, 30).\n"
     "r(50, 40).\n"
     CSL_RULES "p(ann, Y)?\n",
     nullptr,
     "counting-safety verdicts (canonical strongly linear; magic graph over 'l': regular, 1 node(s) / 0 arc(s), 0 recurring):\n"
     "  counting          safe    magic graph is acyclic: every index set I_b is finite\n"
     "  magic_sets        safe    safe on every instance (no counting indices involved)\n"
     "  mc/basic/ind      safe    regular graph: counting covers the whole magic set\n"
     "  mc/basic/int      safe    regular graph: counting covers the whole magic set\n"
     "  mc/single/ind     safe    regular graph: i_x = +inf, counting covers the whole magic set\n"
     "  mc/single/int     safe    regular graph: i_x = +inf, counting covers the whole magic set\n"
     "  mc/multiple/ind   safe    regular graph: every node single, counting covers everything\n"
     "  mc/multiple/int   safe    regular graph: every node single, counting covers everything\n"
     "  mc/recurring/ind  safe    regular graph: counting covers everything\n"
     "  mc/recurring/int  safe    regular graph: counting covers everything\n"
     "cost model (n_L=1, m_L=0, m_R=1, class=regular):\n"
     "  method            verdict     predicted   worst-case  formula\n"
     "  counting          safe                1            1  m_L + n_L*m_R\n"
     "  magic_sets        safe                0            0  m_L*m_R\n"
     "  mc/basic/ind      safe                1            1  m_L + n_L*m_R\n"
     "  mc/basic/int      safe                1            1  m_L + n_L*m_R\n"
     "  mc/single/ind     safe                1            1  m_L + n_L*m_R\n"
     "  mc/single/int     safe                1            1  m_L + n_L*m_R\n"
     "  mc/multiple/ind   safe                1            1  m_L + n_L*m_R\n"
     "  mc/multiple/int   safe                1            1  m_L + n_L*m_R\n"
     "  mc/recurring/ind  safe                1            1  m_L + n_L*m_R\n"
     "  mc/recurring/int  safe                1            1  m_L + n_L*m_R\n"
     "ranking (by predicted cost): magic_sets < counting < mc/basic/int < mc/basic/ind < mc/single/int < mc/single/ind < mc/multiple/int < mc/multiple/ind < mc/recurring/int < mc/recurring/ind\n"
     "dominance (Figure 3): counting <= magic_sets [VIOLATED], mc/basic/ind <= magic_sets [VIOLATED], mc/basic/int <= magic_sets [VIOLATED]\n"
     "6:1: note: query is canonical strongly linear: CSL{P=p E=e L=l R=r a=\"ann\"} [N501]\n"
     "6:1: note: cost[counting]: predicted 1, worst-case 1 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "6:1: note: cost[magic_sets]: predicted 0, worst-case 0 tuple retrievals (m_L*m_R) [N601]\n"
     "6:1: note: cost[mc/basic/ind]: predicted 1, worst-case 1 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "6:1: note: cost[mc/basic/int]: predicted 1, worst-case 1 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "6:1: note: cost[mc/single/ind]: predicted 1, worst-case 1 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "6:1: note: cost[mc/single/int]: predicted 1, worst-case 1 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "6:1: note: cost[mc/multiple/ind]: predicted 1, worst-case 1 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "6:1: note: cost[mc/multiple/int]: predicted 1, worst-case 1 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "6:1: note: cost[mc/recurring/ind]: predicted 1, worst-case 1 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "6:1: note: cost[mc/recurring/int]: predicted 1, worst-case 1 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "6:1: note: cost model over 'l': n_L=1 m_L=0 m_R=1, regular; cheapest safe method: magic_sets (predicted 0) [N602]\n"},
    {"program_facts_missing_r",
     "l(1, 2). e(2, 3). e(1, 4).\n"
     CSL_RULES "p(1, Y)?\n",
     nullptr,
     "counting-safety verdicts (canonical strongly linear; magic graph over 'l': regular, 2 node(s) / 1 arc(s), 0 recurring):\n"
     "  counting          safe    magic graph is acyclic: every index set I_b is finite\n"
     "  magic_sets        safe    safe on every instance (no counting indices involved)\n"
     "  mc/basic/ind      safe    regular graph: counting covers the whole magic set\n"
     "  mc/basic/int      safe    regular graph: counting covers the whole magic set\n"
     "  mc/single/ind     safe    regular graph: i_x = +inf, counting covers the whole magic set\n"
     "  mc/single/int     safe    regular graph: i_x = +inf, counting covers the whole magic set\n"
     "  mc/multiple/ind   safe    regular graph: every node single, counting covers everything\n"
     "  mc/multiple/int   safe    regular graph: every node single, counting covers everything\n"
     "  mc/recurring/ind  safe    regular graph: counting covers everything\n"
     "  mc/recurring/int  safe    regular graph: counting covers everything\n"
     "cost model: not computed (no stored relation for the R part; m_R is unknown)\n"
     "4:1: note: query is canonical strongly linear: CSL{P=p E=e L=l R=r a=1} [N501]\n"
     "4:1: note: cost model: no stored relation for the R part; m_R is unknown; method selection falls back to the static order [N603]\n"},
    {"no_statistics",
     CSL_RULES "p(1, Y)?\n",
     nullptr,
     "counting-safety verdicts (canonical strongly linear; magic graph not analyzed):\n"
     "  counting          unknown cannot build the magic graph statically (no facts or stored relation for 'l')\n"
     "  magic_sets        safe    safe on every instance (no counting indices involved)\n"
     "  mc/basic/ind      safe    safe on every instance (Proposition 3: Step 1 routes divergent nodes to RM)\n"
     "  mc/basic/int      safe    safe on every instance (Proposition 3: Step 1 routes divergent nodes to RM)\n"
     "  mc/single/ind     safe    safe on every instance (Proposition 3: Step 1 routes divergent nodes to RM)\n"
     "  mc/single/int     safe    safe on every instance (Proposition 3: Step 1 routes divergent nodes to RM)\n"
     "  mc/multiple/ind   safe    safe on every instance (Proposition 3: Step 1 routes divergent nodes to RM)\n"
     "  mc/multiple/int   safe    safe on every instance (Proposition 3: Step 1 routes divergent nodes to RM)\n"
     "  mc/recurring/ind  safe    safe on every instance (Proposition 3: Step 1 routes divergent nodes to RM)\n"
     "  mc/recurring/int  safe    safe on every instance (Proposition 3: Step 1 routes divergent nodes to RM)\n"
     "cost model: not computed (no binary facts or stored relation for 'l')\n"
     "3:1: note: query is canonical strongly linear: CSL{P=p E=e L=l R=r a=1} [N501]\n"
     "3:1: note: counting-safety: no facts or stored relation for 'l'; verdicts for pure counting are structural only [N502]\n"
     "3:1: note: cost model: no binary facts or stored relation for 'l'; method selection falls back to the static order [N603]\n"},
    {"db_l_program_er",
     "e(4, 40). e(3, 30).\n"
     "r(50, 40). r(60, 50). r(31, 30).\n"
     CSL_RULES "p(1, Y)?\n",
     &kLOnly,
     "counting-safety verdicts (canonical strongly linear; magic graph over 'l': acyclic, 4 node(s) / 4 arc(s), 0 recurring):\n"
     "  counting          safe    magic graph is acyclic: every index set I_b is finite\n"
     "  magic_sets        safe    safe on every instance (no counting indices involved)\n"
     "  mc/basic/ind      safe    non-regular graph detected: falls back to RM = MS (pure magic)\n"
     "  mc/basic/int      safe    non-regular graph detected: falls back to RM = MS (pure magic)\n"
     "  mc/single/ind     safe    counting restricted to indices below i_x; rest to RM\n"
     "  mc/single/int     safe    counting restricted to indices below i_x; rest to RM\n"
     "  mc/multiple/ind   safe    counting keeps single nodes; multiple nodes to RM\n"
     "  mc/multiple/int   safe    counting keeps single nodes; multiple nodes to RM\n"
     "  mc/recurring/ind  safe    counting keeps all finite index sets (single + multiple nodes)\n"
     "  mc/recurring/int  safe    counting keeps all finite index sets (single + multiple nodes)\n"
     "cost model: not computed (no stored relation for the R part; m_R is unknown)\n"
     "5:1: note: query is canonical strongly linear: CSL{P=p E=e L=l R=r a=1} [N501]\n"
     "5:1: note: cost model: no stored relation for the R part; m_R is unknown; method selection falls back to the static order [N603]\n"},
    {"db_er_program_l",
     "l(1, 2). l(2, 3). l(1, 3). l(3, 4).\n"
     CSL_RULES "p(1, Y)?\n",
     &kEROnly,
     "counting-safety verdicts (canonical strongly linear; magic graph over 'l': acyclic, 4 node(s) / 4 arc(s), 0 recurring):\n"
     "  counting          safe    magic graph is acyclic: every index set I_b is finite\n"
     "  magic_sets        safe    safe on every instance (no counting indices involved)\n"
     "  mc/basic/ind      safe    non-regular graph detected: falls back to RM = MS (pure magic)\n"
     "  mc/basic/int      safe    non-regular graph detected: falls back to RM = MS (pure magic)\n"
     "  mc/single/ind     safe    counting restricted to indices below i_x; rest to RM\n"
     "  mc/single/int     safe    counting restricted to indices below i_x; rest to RM\n"
     "  mc/multiple/ind   safe    counting keeps single nodes; multiple nodes to RM\n"
     "  mc/multiple/int   safe    counting keeps single nodes; multiple nodes to RM\n"
     "  mc/recurring/ind  safe    counting keeps all finite index sets (single + multiple nodes)\n"
     "  mc/recurring/int  safe    counting keeps all finite index sets (single + multiple nodes)\n"
     "cost model: not computed (no stored relation for the R part; m_R is unknown)\n"
     "4:1: note: query is canonical strongly linear: CSL{P=p E=e L=l R=r a=1} [N501]\n"
     "4:1: note: cost model: no stored relation for the R part; m_R is unknown; method selection falls back to the static order [N603]\n"},
    {"db_l_program_l_fact",
     "l(2, 0).\n"
     CSL_RULES "p(0, Y)?\n",
     &kChainL,
     "counting-safety verdicts (canonical strongly linear; magic graph over 'l': regular, 3 node(s) / 2 arc(s), 0 recurring):\n"
     "  counting          unknown magic graph is acyclic over part of 'l' only: the program adds tuples the graph does not hold\n"
     "  magic_sets        safe    safe on every instance (no counting indices involved)\n"
     "  mc/basic/ind      safe    regular graph: counting covers the whole magic set\n"
     "  mc/basic/int      safe    regular graph: counting covers the whole magic set\n"
     "  mc/single/ind     safe    regular graph: i_x = +inf, counting covers the whole magic set\n"
     "  mc/single/int     safe    regular graph: i_x = +inf, counting covers the whole magic set\n"
     "  mc/multiple/ind   safe    regular graph: every node single, counting covers everything\n"
     "  mc/multiple/int   safe    regular graph: every node single, counting covers everything\n"
     "  mc/recurring/ind  safe    regular graph: counting covers everything\n"
     "  mc/recurring/int  safe    regular graph: counting covers everything\n"
     "cost model: not computed (the magic graph covers part of 'l' only: the program adds tuples the graph does not hold)\n"
     "4:1: note: query is canonical strongly linear: CSL{P=p E=e L=l R=r a=0} [N501]\n"
     "4:1: note: cost model: the magic graph covers part of 'l' only: the program adds tuples the graph does not hold; method selection falls back to the static order [N603]\n"},
    {"derived_l_program_l_fact",
     "l(X, Y) :- base(X, Y).\n"
     "l(5, 6).\n"
     "e(0, 10).\n"
     "r(11, 10).\n"
     CSL_RULES "p(0, Y)?\n",
     &kBaseCycle,
     "counting-safety verdicts (canonical strongly linear; magic graph over 'l': regular, 1 node(s) / 0 arc(s), 0 recurring):\n"
     "  counting          unknown magic graph is acyclic over part of 'l' only: the program adds tuples the graph does not hold\n"
     "  magic_sets        safe    safe on every instance (no counting indices involved)\n"
     "  mc/basic/ind      safe    regular graph: counting covers the whole magic set\n"
     "  mc/basic/int      safe    regular graph: counting covers the whole magic set\n"
     "  mc/single/ind     safe    regular graph: i_x = +inf, counting covers the whole magic set\n"
     "  mc/single/int     safe    regular graph: i_x = +inf, counting covers the whole magic set\n"
     "  mc/multiple/ind   safe    regular graph: every node single, counting covers everything\n"
     "  mc/multiple/int   safe    regular graph: every node single, counting covers everything\n"
     "  mc/recurring/ind  safe    regular graph: counting covers everything\n"
     "  mc/recurring/int  safe    regular graph: counting covers everything\n"
     "cost model: not computed (the magic graph covers part of 'l' only: the program adds tuples the graph does not hold)\n"
     "7:1: note: query is canonical strongly linear: CSL{P=p E=e L=l R=r a=0} [N501]\n"
     "7:1: note: cost model: the magic graph covers part of 'l' only: the program adds tuples the graph does not hold; method selection falls back to the static order [N603]\n"},
    {"db_non_binary_l", CSL_RULES "p(1, Y)?\n",
     &kTernaryL,
     "counting-safety verdicts (canonical strongly linear; magic graph not analyzed):\n"
     "  counting          unknown cannot build the magic graph statically (relation 'l' is not binary)\n"
     "  magic_sets        safe    safe on every instance (no counting indices involved)\n"
     "  mc/basic/ind      safe    safe on every instance (Proposition 3: Step 1 routes divergent nodes to RM)\n"
     "  mc/basic/int      safe    safe on every instance (Proposition 3: Step 1 routes divergent nodes to RM)\n"
     "  mc/single/ind     safe    safe on every instance (Proposition 3: Step 1 routes divergent nodes to RM)\n"
     "  mc/single/int     safe    safe on every instance (Proposition 3: Step 1 routes divergent nodes to RM)\n"
     "  mc/multiple/ind   safe    safe on every instance (Proposition 3: Step 1 routes divergent nodes to RM)\n"
     "  mc/multiple/int   safe    safe on every instance (Proposition 3: Step 1 routes divergent nodes to RM)\n"
     "  mc/recurring/ind  safe    safe on every instance (Proposition 3: Step 1 routes divergent nodes to RM)\n"
     "  mc/recurring/int  safe    safe on every instance (Proposition 3: Step 1 routes divergent nodes to RM)\n"
     "cost model: not computed (no binary facts or stored relation for 'l')\n"
     "2:12: error: relation 'l' is stored with arity 3, the program uses it with arity 2 [E101]\n"
     "3:1: note: query is canonical strongly linear: CSL{P=p E=e L=l R=r a=1} [N501]\n"
     "3:1: note: counting-safety: relation 'l' is not binary; verdicts for pure counting are structural only [N502]\n"
     "3:1: note: cost model: no binary facts or stored relation for 'l'; method selection falls back to the static order [N603]\n"},
    {"db_empty_l", CSL_RULES "p(1, Y)?\n",
     &kEmptyL,
     "counting-safety verdicts (canonical strongly linear; magic graph over 'l': regular, 1 node(s) / 0 arc(s), 0 recurring):\n"
     "  counting          safe    magic graph is acyclic: every index set I_b is finite\n"
     "  magic_sets        safe    safe on every instance (no counting indices involved)\n"
     "  mc/basic/ind      safe    regular graph: counting covers the whole magic set\n"
     "  mc/basic/int      safe    regular graph: counting covers the whole magic set\n"
     "  mc/single/ind     safe    regular graph: i_x = +inf, counting covers the whole magic set\n"
     "  mc/single/int     safe    regular graph: i_x = +inf, counting covers the whole magic set\n"
     "  mc/multiple/ind   safe    regular graph: every node single, counting covers everything\n"
     "  mc/multiple/int   safe    regular graph: every node single, counting covers everything\n"
     "  mc/recurring/ind  safe    regular graph: counting covers everything\n"
     "  mc/recurring/int  safe    regular graph: counting covers everything\n"
     "cost model: not computed (no binary facts or stored relation for 'l')\n"
     "3:1: note: query is canonical strongly linear: CSL{P=p E=e L=l R=r a=1} [N501]\n"
     "3:1: note: cost model: no binary facts or stored relation for 'l'; method selection falls back to the static order [N603]\n"},
    {"db_constant_absent", CSL_RULES "p(zed, Y)?\n",
     &kAcyclic,
     "counting-safety verdicts (canonical strongly linear; magic graph over 'l': regular, 1 node(s) / 0 arc(s), 0 recurring):\n"
     "  counting          safe    magic graph is acyclic: every index set I_b is finite\n"
     "  magic_sets        safe    safe on every instance (no counting indices involved)\n"
     "  mc/basic/ind      safe    regular graph: counting covers the whole magic set\n"
     "  mc/basic/int      safe    regular graph: counting covers the whole magic set\n"
     "  mc/single/ind     safe    regular graph: i_x = +inf, counting covers the whole magic set\n"
     "  mc/single/int     safe    regular graph: i_x = +inf, counting covers the whole magic set\n"
     "  mc/multiple/ind   safe    regular graph: every node single, counting covers everything\n"
     "  mc/multiple/int   safe    regular graph: every node single, counting covers everything\n"
     "  mc/recurring/ind  safe    regular graph: counting covers everything\n"
     "  mc/recurring/int  safe    regular graph: counting covers everything\n"
     "cost model: not computed (query constant never occurs in the data: the magic graph is the isolated source node and every method is O(1))\n"
     "3:1: note: query is canonical strongly linear: CSL{P=p E=e L=l R=r a=\"zed\"} [N501]\n"
     "3:1: note: cost model: query constant never occurs in the data: the magic graph is the isolated source node and every method is O(1); method selection falls back to the static order [N603]\n"},
    {"db_constant_outside_l", CSL_RULES "p(99, Y)?\n",
     &kAcyclic,
     "counting-safety verdicts (canonical strongly linear; magic graph over 'l': regular, 1 node(s) / 0 arc(s), 0 recurring):\n"
     "  counting          safe    magic graph is acyclic: every index set I_b is finite\n"
     "  magic_sets        safe    safe on every instance (no counting indices involved)\n"
     "  mc/basic/ind      safe    regular graph: counting covers the whole magic set\n"
     "  mc/basic/int      safe    regular graph: counting covers the whole magic set\n"
     "  mc/single/ind     safe    regular graph: i_x = +inf, counting covers the whole magic set\n"
     "  mc/single/int     safe    regular graph: i_x = +inf, counting covers the whole magic set\n"
     "  mc/multiple/ind   safe    regular graph: every node single, counting covers everything\n"
     "  mc/multiple/int   safe    regular graph: every node single, counting covers everything\n"
     "  mc/recurring/ind  safe    regular graph: counting covers everything\n"
     "  mc/recurring/int  safe    regular graph: counting covers everything\n"
     "cost model (n_L=1, m_L=0, m_R=0, class=regular):\n"
     "  method            verdict     predicted   worst-case  formula\n"
     "  counting          safe                0            0  m_L + n_L*m_R\n"
     "  magic_sets        safe                0            0  m_L*m_R\n"
     "  mc/basic/ind      safe                0            0  m_L + n_L*m_R\n"
     "  mc/basic/int      safe                0            0  m_L + n_L*m_R\n"
     "  mc/single/ind     safe                0            0  m_L + n_L*m_R\n"
     "  mc/single/int     safe                0            0  m_L + n_L*m_R\n"
     "  mc/multiple/ind   safe                0            0  m_L + n_L*m_R\n"
     "  mc/multiple/int   safe                0            0  m_L + n_L*m_R\n"
     "  mc/recurring/ind  safe                0            0  m_L + n_L*m_R\n"
     "  mc/recurring/int  safe                0            0  m_L + n_L*m_R\n"
     "ranking (by predicted cost): counting < mc/basic/int < mc/basic/ind < mc/single/int < mc/single/ind < mc/multiple/int < mc/multiple/ind < mc/recurring/int < mc/recurring/ind < magic_sets\n"
     "dominance (Figure 3): counting <= magic_sets, mc/basic/ind <= magic_sets, mc/basic/int <= magic_sets\n"
     "3:1: note: query is canonical strongly linear: CSL{P=p E=e L=l R=r a=99} [N501]\n"
     "3:1: note: cost[counting]: predicted 0, worst-case 0 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "3:1: note: cost[magic_sets]: predicted 0, worst-case 0 tuple retrievals (m_L*m_R) [N601]\n"
     "3:1: note: cost[mc/basic/ind]: predicted 0, worst-case 0 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "3:1: note: cost[mc/basic/int]: predicted 0, worst-case 0 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "3:1: note: cost[mc/single/ind]: predicted 0, worst-case 0 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "3:1: note: cost[mc/single/int]: predicted 0, worst-case 0 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "3:1: note: cost[mc/multiple/ind]: predicted 0, worst-case 0 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "3:1: note: cost[mc/multiple/int]: predicted 0, worst-case 0 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "3:1: note: cost[mc/recurring/ind]: predicted 0, worst-case 0 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "3:1: note: cost[mc/recurring/int]: predicted 0, worst-case 0 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "3:1: note: cost model over 'l': n_L=1 m_L=0 m_R=0, regular; cheapest safe method: counting (predicted 0) [N602]\n"},
    {"composed_conjunctive_l",
     "p(X, Y) :- e(X, Y).\np(X, Y) :- a(X, Z), b(Z, X1), p(X1, Y1), r(Y, Y1).\np(1, Y)?\n",
     &kComposedData,
     "counting-safety verdicts (composed strongly linear; magic graph not analyzed):\n"
     "  counting          unknown cannot build the magic graph statically (the L-part is a conjunction; its graph exists only after materialization)\n"
     "  magic_sets        safe    safe on every instance (no counting indices involved)\n"
     "  mc/basic/ind      safe    safe on every instance (Proposition 3: Step 1 routes divergent nodes to RM)\n"
     "  mc/basic/int      safe    safe on every instance (Proposition 3: Step 1 routes divergent nodes to RM)\n"
     "  mc/single/ind     safe    safe on every instance (Proposition 3: Step 1 routes divergent nodes to RM)\n"
     "  mc/single/int     safe    safe on every instance (Proposition 3: Step 1 routes divergent nodes to RM)\n"
     "  mc/multiple/ind   safe    safe on every instance (Proposition 3: Step 1 routes divergent nodes to RM)\n"
     "  mc/multiple/int   safe    safe on every instance (Proposition 3: Step 1 routes divergent nodes to RM)\n"
     "  mc/recurring/ind  safe    safe on every instance (Proposition 3: Step 1 routes divergent nodes to RM)\n"
     "  mc/recurring/int  safe    safe on every instance (Proposition 3: Step 1 routes divergent nodes to RM)\n"
     "cost model: not computed (the L-part is a conjunction; its graph exists only after materialization)\n"
     "3:1: note: query is composed strongly linear: SL{P=p |prefix|=2 |suffix|=1 |exit|=1 a=1} [N501]\n"
     "3:1: note: counting-safety: the L-part is a conjunction; its graph exists only after materialization; verdicts for pure counting are structural only [N502]\n"
     "3:1: note: cost model: the L-part is a conjunction; its graph exists only after materialization; method selection falls back to the static order [N603]\n"},
    {"composed_atomic_l_conjunctive_r",
     "p(X, Y) :- e(X, Y).\np(X, Y) :- l(X, X1), p(X1, Y1), c(Y, W), d(W, Y1).\np(1, Y)?\n",
     &kComposedData,
     "counting-safety verdicts (composed strongly linear; magic graph over 'l': acyclic, 3 node(s) / 3 arc(s), 0 recurring):\n"
     "  counting          safe    magic graph is acyclic: every index set I_b is finite\n"
     "  magic_sets        safe    safe on every instance (no counting indices involved)\n"
     "  mc/basic/ind      safe    non-regular graph detected: falls back to RM = MS (pure magic)\n"
     "  mc/basic/int      safe    non-regular graph detected: falls back to RM = MS (pure magic)\n"
     "  mc/single/ind     safe    counting restricted to indices below i_x; rest to RM\n"
     "  mc/single/int     safe    counting restricted to indices below i_x; rest to RM\n"
     "  mc/multiple/ind   safe    counting keeps single nodes; multiple nodes to RM\n"
     "  mc/multiple/int   safe    counting keeps single nodes; multiple nodes to RM\n"
     "  mc/recurring/ind  safe    counting keeps all finite index sets (single + multiple nodes)\n"
     "  mc/recurring/int  safe    counting keeps all finite index sets (single + multiple nodes)\n"
     "cost model: not computed (no stored relation for the R part; m_R is unknown)\n"
     "3:1: note: query is composed strongly linear: SL{P=p |prefix|=1 |suffix|=2 |exit|=1 a=1} [N501]\n"
     "3:1: note: cost model: no stored relation for the R part; m_R is unknown; method selection falls back to the static order [N603]\n"},
    {"composed_program_facts",
     "l(1, 2). l(2, 3). e(3, 30). c(31, 9). d(9, 30).\n"
     "p(X, Y) :- e(X, Y).\np(X, Y) :- l(X, X1), p(X1, Y1), c(Y, W), d(W, Y1).\np(1, Y)?\n",
     nullptr,
     "counting-safety verdicts (composed strongly linear; magic graph over 'l': regular, 3 node(s) / 2 arc(s), 0 recurring):\n"
     "  counting          safe    magic graph is acyclic: every index set I_b is finite\n"
     "  magic_sets        safe    safe on every instance (no counting indices involved)\n"
     "  mc/basic/ind      safe    regular graph: counting covers the whole magic set\n"
     "  mc/basic/int      safe    regular graph: counting covers the whole magic set\n"
     "  mc/single/ind     safe    regular graph: i_x = +inf, counting covers the whole magic set\n"
     "  mc/single/int     safe    regular graph: i_x = +inf, counting covers the whole magic set\n"
     "  mc/multiple/ind   safe    regular graph: every node single, counting covers everything\n"
     "  mc/multiple/int   safe    regular graph: every node single, counting covers everything\n"
     "  mc/recurring/ind  safe    regular graph: counting covers everything\n"
     "  mc/recurring/int  safe    regular graph: counting covers everything\n"
     "cost model: not computed (no stored relation for the R part; m_R is unknown)\n"
     "4:1: note: query is composed strongly linear: SL{P=p |prefix|=1 |suffix|=2 |exit|=1 a=1} [N501]\n"
     "4:1: note: cost model: no stored relation for the R part; m_R is unknown; method selection falls back to the static order [N603]\n"},
    {"db_reverse_bound", CSL_RULES "p(X, 60)?\n",
     &kAcyclic,
     "counting-safety verdicts (reverse-bound strongly linear; magic graph over 'r': regular, 3 node(s) / 2 arc(s), 0 recurring):\n"
     "  counting          safe    magic graph is acyclic: every index set I_b is finite\n"
     "  magic_sets        safe    safe on every instance (no counting indices involved)\n"
     "  mc/basic/ind      safe    regular graph: counting covers the whole magic set\n"
     "  mc/basic/int      safe    regular graph: counting covers the whole magic set\n"
     "  mc/single/ind     safe    regular graph: i_x = +inf, counting covers the whole magic set\n"
     "  mc/single/int     safe    regular graph: i_x = +inf, counting covers the whole magic set\n"
     "  mc/multiple/ind   safe    regular graph: every node single, counting covers everything\n"
     "  mc/multiple/int   safe    regular graph: every node single, counting covers everything\n"
     "  mc/recurring/ind  safe    regular graph: counting covers everything\n"
     "  mc/recurring/int  safe    regular graph: counting covers everything\n"
     "cost model (n_L=3, m_L=2, m_R=4~, class=regular):\n"
     "  method            verdict     predicted   worst-case  formula\n"
     "  counting          safe               14           14  m_L + n_L*m_R\n"
     "  magic_sets        safe                8            8  m_L*m_R\n"
     "  mc/basic/ind      safe               16           14  m_L + n_L*m_R\n"
     "  mc/basic/int      safe               16           14  m_L + n_L*m_R\n"
     "  mc/single/ind     safe               16           14  m_L + n_L*m_R\n"
     "  mc/single/int     safe               16           14  m_L + n_L*m_R\n"
     "  mc/multiple/ind   safe               16           14  m_L + n_L*m_R\n"
     "  mc/multiple/int   safe               16           14  m_L + n_L*m_R\n"
     "  mc/recurring/ind  safe               24           14  m_L + n_L*m_R\n"
     "  mc/recurring/int  safe               24           14  m_L + n_L*m_R\n"
     "ranking (by predicted cost): magic_sets < counting < mc/basic/int < mc/basic/ind < mc/single/int < mc/single/ind < mc/multiple/int < mc/multiple/ind < mc/recurring/int < mc/recurring/ind\n"
     "dominance (Figure 3): counting <= magic_sets [VIOLATED], mc/basic/ind <= magic_sets [VIOLATED], mc/basic/int <= magic_sets [VIOLATED]\n"
     "3:1: note: query is reverse-bound strongly linear: SL{P=p |prefix|=1 |suffix|=1 |exit|=1 b=60} [N501]\n"
     "3:1: note: cost[counting]: predicted 14, worst-case 14 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "3:1: note: cost[magic_sets]: predicted 8, worst-case 8 tuple retrievals (m_L*m_R) [N601]\n"
     "3:1: note: cost[mc/basic/ind]: predicted 16, worst-case 14 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "3:1: note: cost[mc/basic/int]: predicted 16, worst-case 14 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "3:1: note: cost[mc/single/ind]: predicted 16, worst-case 14 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "3:1: note: cost[mc/single/int]: predicted 16, worst-case 14 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "3:1: note: cost[mc/multiple/ind]: predicted 16, worst-case 14 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "3:1: note: cost[mc/multiple/int]: predicted 16, worst-case 14 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "3:1: note: cost[mc/recurring/ind]: predicted 24, worst-case 14 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "3:1: note: cost[mc/recurring/int]: predicted 24, worst-case 14 tuple retrievals (m_L + n_L*m_R) [N601]\n"
     "3:1: note: cost model over 'r': n_L=3 m_L=2 m_R=4 (upper bound: |R|), regular; cheapest safe method: magic_sets (predicted 8) [N602]\n"},
    {"program_facts_reverse_bound",
     "l(1, 2). r(5, 6). r(6, 5).\n"
     CSL_RULES "p(X, 6)?\n",
     nullptr,
     "counting-safety verdicts (reverse-bound strongly linear; magic graph over 'r': cyclic, 2 node(s) / 2 arc(s), 2 recurring):\n"
     "  counting          UNSAFE  magic graph is cyclic (2 recurring node(s)): the counting-set fixpoint diverges; Theorem 1(b) cannot hold\n"
     "  magic_sets        safe    safe on every instance (no counting indices involved)\n"
     "  mc/basic/ind      safe    non-regular graph detected: falls back to RM = MS (pure magic)\n"
     "  mc/basic/int      safe    non-regular graph detected: falls back to RM = MS (pure magic)\n"
     "  mc/single/ind     safe    counting restricted to indices below i_x; recurring nodes to RM\n"
     "  mc/single/int     safe    counting restricted to indices below i_x; recurring nodes to RM\n"
     "  mc/multiple/ind   safe    counting keeps single nodes; recurring/multiple nodes to RM\n"
     "  mc/multiple/int   safe    counting keeps single nodes; recurring/multiple nodes to RM\n"
     "  mc/recurring/ind  safe    recurring nodes to RM; counting keeps the finite index sets\n"
     "  mc/recurring/int  safe    recurring nodes to RM; counting keeps the finite index sets\n"
     "cost model (n_L=2, m_L=2, m_R=1~, class=cyclic; n_s=0 n_m=0 n_s^=0):\n"
     "  method            verdict     predicted   worst-case  formula\n"
     "  counting          UNSAFE            inf          inf  infinite (cyclic magic graph)\n"
     "  magic_sets        safe                2            2  m_L*m_R\n"
     "  mc/basic/ind      safe                4            2  m_L*m_R\n"
     "  mc/basic/int      safe                4            2  m_L*m_R\n"
     "  mc/single/ind     safe                4            4  m_L + (m_L - m_j^)*m_R + n_s^*m_R\n"
     "  mc/single/int     safe                4            4  m_L + (m_L - m_s^)*m_R + n_s^*m_R\n"
     "  mc/multiple/ind   safe                4            4  m_L + (m_L - m_i)*m_R + n_i*m_R\n"
     "  mc/multiple/int   safe                4            4  m_L + (m_L - m_s)*m_R + n_s*m_R\n"
     "  mc/recurring/ind  safe                6            6  n_L*m_L + (m_L - m_m^)*m_R + n_m^*m_R\n"
     "  mc/recurring/int  safe                6            6  n_L*m_L + (m_L - m_m)*m_R + n_m*m_R\n"
     "ranking (by predicted cost): magic_sets < mc/basic/int < mc/basic/ind < mc/single/int < mc/single/ind < mc/multiple/int < mc/multiple/ind < mc/recurring/int < mc/recurring/ind\n"
     "dominance (Figure 3): mc/basic/ind <= magic_sets [VIOLATED], mc/basic/int <= magic_sets [VIOLATED], mc/single/ind <= mc/basic/ind, mc/single/int <= mc/single/ind, mc/multiple/ind <= mc/single/ind, mc/multiple/int <= mc/single/int, mc/multiple/int <= mc/multiple/ind, mc/recurring/int <= mc/recurring/ind, mc/recurring/ind <~ mc/multiple/ind [VIOLATED], mc/recurring/int <~ mc/multiple/int [VIOLATED], mc/basic/ind <= counting\n"
     "3:1: warning: pure counting is unsafe for this instance: magic graph over 'r' is cyclic (2 of 2 node(s) recurring); unsafe methods: counting (independent and integrated); safe alternatives: magic_sets and every magic counting method (mc/basic..mc/recurring routes recurring nodes to the magic side) [W401]\n"
     "4:1: note: query is reverse-bound strongly linear: SL{P=p |prefix|=1 |suffix|=1 |exit|=1 b=6} [N501]\n"
     "4:1: note: cost[counting]: divergent (cyclic magic graph) [N601]\n"
     "4:1: note: cost[magic_sets]: predicted 2, worst-case 2 tuple retrievals (m_L*m_R) [N601]\n"
     "4:1: note: cost[mc/basic/ind]: predicted 4, worst-case 2 tuple retrievals (m_L*m_R) [N601]\n"
     "4:1: note: cost[mc/basic/int]: predicted 4, worst-case 2 tuple retrievals (m_L*m_R) [N601]\n"
     "4:1: note: cost[mc/single/ind]: predicted 4, worst-case 4 tuple retrievals (m_L + (m_L - m_j^)*m_R + n_s^*m_R) [N601]\n"
     "4:1: note: cost[mc/single/int]: predicted 4, worst-case 4 tuple retrievals (m_L + (m_L - m_s^)*m_R + n_s^*m_R) [N601]\n"
     "4:1: note: cost[mc/multiple/ind]: predicted 4, worst-case 4 tuple retrievals (m_L + (m_L - m_i)*m_R + n_i*m_R) [N601]\n"
     "4:1: note: cost[mc/multiple/int]: predicted 4, worst-case 4 tuple retrievals (m_L + (m_L - m_s)*m_R + n_s*m_R) [N601]\n"
     "4:1: note: cost[mc/recurring/ind]: predicted 6, worst-case 6 tuple retrievals (n_L*m_L + (m_L - m_m^)*m_R + n_m^*m_R) [N601]\n"
     "4:1: note: cost[mc/recurring/int]: predicted 6, worst-case 6 tuple retrievals (n_L*m_L + (m_L - m_m)*m_R + n_m*m_R) [N601]\n"
     "4:1: note: cost model over 'r': n_L=2 m_L=2 m_R=1 (upper bound: |R|), cyclic; cheapest safe method: magic_sets (predicted 2) [N602]\n"},
    {"not_strongly_linear",
     "tc(X, Y) :- e(X, Y).\ntc(X, Y) :- tc(X, Z), tc(Z, Y).\ntc(1, Y)?\n",
     &kRegular,
     "counting-safety verdicts (not strongly linear; magic graph not analyzed):\n"
     "cost model: not computed (query is outside the strongly linear class)\n"},
};
// clang-format on
#undef CSL_RULES

/// Pass 4/5 diagnostics, plus E101: a stored relation the program uses at
/// another arity stops every plan before the verdicts matter.
bool IsRendered(DiagCode code) {
  switch (code) {
    case DiagCode::kArityConflict:
    case DiagCode::kCountingUnsafe:
    case DiagCode::kQueryClassCsl:
    case DiagCode::kNoEdbStats:
    case DiagCode::kCostEstimate:
    case DiagCode::kCostRanking:
    case DiagCode::kCostUnknown:
      return true;
    default:
      return false;
  }
}

AnalysisResult AnalyzeCase(const Case& c) {
  auto program = dl::Parse(c.source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  Database db;
  AnalyzeOptions options;
  if (c.stored != nullptr) {
    for (const Stored& s : *c.stored) {
      Relation* rel = db.GetOrCreateRelation(s.name, s.arity);
      for (const Tuple& t : s.rows) rel->Insert(t);
    }
    options.db = &db;
  }
  return Analyze(*program, options);
}

/// Verdict table, cost table, then every rendered diagnostic in order.
std::string Render(const AnalysisResult& r) {
  std::string out = r.safety.ToString() + r.cost.ToString();
  for (const dl::Diagnostic& d : r.diagnostics.diagnostics()) {
    if (IsRendered(d.code)) out += d.ToString() + "\n";
  }
  return out;
}

TEST(AnalyzerReportGolden, EveryCaseMatchesItsGoldenReport) {
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.name);
    AnalysisResult r = AnalyzeCase(c);
    EXPECT_EQ(Render(r), c.golden) << "observed:\n" << Render(r);
  }
}

TEST(AnalyzerReportGolden, SafetyAndCostAgreeOnTheMagicGraph) {
  size_t both = 0;
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.name);
    AnalysisResult r = AnalyzeCase(c);
    if (!r.safety.analyzed || !r.cost.computed) continue;
    ++both;
    EXPECT_EQ(r.safety.magic_nodes, r.cost.n_l);
    EXPECT_EQ(r.safety.magic_arcs, r.cost.m_l);
  }
  EXPECT_GT(both, 0u);
}

}  // namespace
}  // namespace mcm::analysis
