package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteEdgeList serialises g as a plain-text edge list: a header line
// "# nodes N edges M" followed by one "u v" pair per line in out-adjacency
// order. The format round-trips through ReadEdgeList and is convenient for
// exchanging topologies with external tools (plotting, other simulators).
func WriteEdgeList(w io.Writer, g *Digraph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes %d edges %d\n", g.N(), g.M()); err != nil {
		return err
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Out(NodeID(u)) {
			if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// maxNodes is the largest node count NodeID can index.
const maxNodes = 1<<31 - 1

// ReadEdgeList parses the WriteEdgeList format (and tolerates missing
// headers if every node id appears on some edge). Lines starting with '#'
// other than the header are comments. Returns a descriptive error on
// malformed input.
func ReadEdgeList(r io.Reader) (*Digraph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	n := -1
	var edges [][2]NodeID
	maxID := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			var hn, hm int
			if _, err := fmt.Sscanf(line, "# nodes %d edges %d", &hn, &hm); err == nil {
				if hn < 1 || hn > maxNodes {
					return nil, fmt.Errorf("graph: line %d: invalid node count %d", lineNo, hn)
				}
				n = hn
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: line %d: want 'u v', got %q", lineNo, line)
		}
		var ids [2]int
		for i, f := range fields {
			id, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
			// Ids index n ≤ maxNodes nodes, so the largest is maxNodes-1.
			if id < 0 || id >= maxNodes {
				return nil, fmt.Errorf("graph: line %d: node id %d outside [0, %d)", lineNo, id, maxNodes)
			}
			ids[i] = id
		}
		u, v := ids[0], ids[1]
		if u == v {
			return nil, fmt.Errorf("graph: line %d: self-loop %d", lineNo, u)
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		edges = append(edges, [2]NodeID{NodeID(u), NodeID(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		n = maxID + 1
	}
	if n < 1 {
		return nil, fmt.Errorf("graph: empty edge list without header")
	}
	if maxID >= n {
		return nil, fmt.Errorf("graph: edge references node %d but header says %d nodes", maxID, n)
	}
	return FromEdges(n, edges), nil
}
