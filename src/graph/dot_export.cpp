#include "graph/dot_export.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/text_writer.hpp"

namespace oneport {

void write_dot(std::ostream& os, const TaskGraph& g,
               const DotOptions& options) {
  OP_REQUIRE(g.finalized(), "graph must be finalized");
  const std::size_t shown = std::min(g.num_tasks(), options.max_tasks);
  TextWriter out(os);
  out.put("digraph ");
  out.put(options.graph_name);
  out.put(" {\n  rankdir=TB;\n  node [shape=circle];\n");
  if (shown < g.num_tasks()) {
    out.put("  // truncated: showing ");
    out.put_int(shown);
    out.put(" of ");
    out.put_int(g.num_tasks());
    out.put(" tasks\n");
  }
  for (TaskId v = 0; v < shown; ++v) {
    out.put("  n");
    out.put_int(v);
    out.put(" [label=\"");
    if (g.name(v).empty()) {
      out.put('v');
      out.put_int(v);
    } else {
      out.put(g.name(v));
    }
    if (options.show_weights) {
      out.put("\\nw=");
      out.put_number(g.weight(v));
    }
    out.put("\"];\n");
  }
  for (TaskId v = 0; v < shown; ++v) {
    for (const EdgeRef& e : g.successors(v)) {
      if (e.task >= shown) continue;
      out.put("  n");
      out.put_int(v);
      out.put(" -> n");
      out.put_int(e.task);
      if (options.show_weights) {
        out.put(" [label=\"");
        out.put_number(e.data);
        out.put("\"]");
      }
      out.put(";\n");
    }
  }
  out.put("}\n");
  out.flush();
}

}  // namespace oneport
