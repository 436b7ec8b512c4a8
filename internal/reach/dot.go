package reach

import (
	"fmt"
	"strings"

	"repro/internal/petri"
)

// DOT renders the reachability graph in Graphviz dot syntax, with node
// labels showing the non-empty places of each marking and edges labeled
// by the firing transition. Deadlock nodes are drawn doubled. A timed
// graph's time-advance edges are labeled with their delta and drawn
// dashed.
func (g *Graph) DOT() string {
	var b strings.Builder
	suffix := "_reach"
	if g.timed {
		suffix = "_treach"
	}
	fmt.Fprintf(&b, "digraph %q {\n", g.Net.Name+suffix)
	g.EachMarking(func(id int, m petri.Marking) bool {
		n := &g.Nodes[id]
		shape := "ellipse"
		if g.Deadlocked(id) {
			shape = "doublecircle"
		}
		fmt.Fprintf(&b, "  n%d [shape=%s label=\"#%d\\n%s\"];\n",
			n.ID, shape, n.ID, strings.ReplaceAll(m.Format(g.Net), " ", "\\n"))
		for _, e := range n.Out {
			if e.Trans == TimeAdvance {
				fmt.Fprintf(&b, "  n%d -> n%d [style=dashed label=\"+%d\"];\n", n.ID, e.To, g.Advance(id))
			} else {
				fmt.Fprintf(&b, "  n%d -> n%d [label=%q];\n", n.ID, e.To, g.Net.Trans[e.Trans].Name)
			}
		}
		return true
	})
	b.WriteString("}\n")
	return b.String()
}
