package lang

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/term"
)

// FormatMPI renders a term as MPI-like pseudocode in the style of §2.1 —
// the reverse of ParseMPI. Standard collectives become the corresponding
// MPI calls; the paper's *new* collective operations (reduce_balanced,
// scan_balanced, comcast, iter), which §6 notes "can be used only if the
// corresponding collective operation is implemented on a particular
// machine", are emitted as calls under their own names with a comment
// citing the section that defines them.
//
// Intermediate variables are synthesized (v0, v1, …); counts, types and
// communicators are emitted symbolically, as the paper writes them.
func FormatMPI(t term.Term) string {
	var b strings.Builder
	v := 0
	cur := func() string { return fmt.Sprintf("v%d", v) }
	nextVar := func() string {
		v++
		return fmt.Sprintf("v%d", v)
	}
	for _, stage := range term.Stages(t) {
		switch s := stage.(type) {
		case term.Map:
			in := cur()
			out := nextVar()
			fmt.Fprintf(&b, "%s = %s ( %s );\n", out, s.F.Name, in)
		case term.MapIdx:
			in := cur()
			out := nextVar()
			fmt.Fprintf(&b, "%s = %s ( rank, %s );  /* map#: rank-indexed local stage */\n", out, s.F.Name, in)
		case term.Scan:
			in := cur()
			out := nextVar()
			fmt.Fprintf(&b, "MPI_Scan (%s, %s, count, type, %s, comm);\n", in, out, mpiOpName(s.Op))
		case term.Reduce:
			in := cur()
			out := nextVar()
			switch {
			case s.Balanced && s.All:
				fmt.Fprintf(&b, "Allreduce_balanced (%s, %s, count, type, %s, comm);  /* new collective, §3.2 */\n",
					in, out, s.Op.Name)
			case s.Balanced:
				fmt.Fprintf(&b, "Reduce_balanced (%s, %s, count, type, %s, root, comm);  /* new collective, §3.2 */\n",
					in, out, s.Op.Name)
			case s.All:
				fmt.Fprintf(&b, "MPI_Allreduce (%s, %s, count, type, %s, comm);\n", in, out, mpiOpName(s.Op))
			default:
				fmt.Fprintf(&b, "MPI_Reduce (%s, %s, count, type, %s, root, comm);\n", in, out, mpiOpName(s.Op))
			}
		case term.ScanBal:
			in := cur()
			out := nextVar()
			fmt.Fprintf(&b, "Scan_balanced (%s, %s, count, type, %s, comm);  /* new collective, §3.3 */\n",
				in, out, s.Op.Name)
		case term.Bcast:
			fmt.Fprintf(&b, "MPI_Bcast (%s, count, type, root, comm);\n", cur())
		case term.Gather:
			in := cur()
			out := nextVar()
			fmt.Fprintf(&b, "MPI_Gather (%s, count, type, %s, count, type, root, comm);\n", in, out)
		case term.Scatter:
			in := cur()
			out := nextVar()
			fmt.Fprintf(&b, "MPI_Scatter (%s, count, type, %s, count, type, root, comm);\n", in, out)
		case term.Comcast:
			in := cur()
			out := nextVar()
			impl := "bcast+repeat"
			if s.CostOptimal {
				impl = "successive doubling"
			}
			fmt.Fprintf(&b, "Comcast (%s, %s, count, type, %s, root, comm);  /* new collective, §3.4 (%s) */\n",
				in, out, s.Ops.Name, impl)
		case term.Iter:
			in := cur()
			out := nextVar()
			fmt.Fprintf(&b, "%s = iter ( %s, %s );  /* local, §3.5: %s applied log p times on the root */\n",
				out, s.Op.Name, in, s.Op.Name)
		case term.Halo:
			in := cur()
			out := nextVar()
			fmt.Fprintf(&b, "MPI_Neighbor_allgather (%s, count, type, %s, count, type, comm_graph);  /* neighborhood %s */\n",
				in, out, strings.TrimPrefix(s.String(), "halo"))
		case term.AllGatherV:
			in := cur()
			out := nextVar()
			fmt.Fprintf(&b, "MPI_Allgatherv (%s, counts[rank], type, %s, counts, displs, type, comm);  /* counts = {%s} */\n",
				in, out, countsList(s.Counts))
		case term.ReduceScatterV:
			in := cur()
			out := nextVar()
			fmt.Fprintf(&b, "MPI_Reduce_scatter (%s, %s, counts, type, %s, comm);  /* counts = {%s} */\n",
				in, out, mpiOpName(s.Op), countsList(s.Counts))
		default:
			fmt.Fprintf(&b, "/* no MPI rendering for %s */\n", stage)
		}
	}
	return b.String()
}

// countsList renders a counts vector for the emitted comments.
func countsList(counts []int) string {
	parts := make([]string, len(counts))
	for i, c := range counts {
		parts[i] = fmt.Sprintf("%d", c)
	}
	return strings.Join(parts, ", ")
}

// mpiOpName maps the predefined base operators back to their MPI names;
// other operators keep their own names (the programmer registers them as
// user-defined MPI_Op values).
func mpiOpName(op *algebra.Op) string {
	switch op {
	case algebra.Add:
		return "MPI_SUM"
	case algebra.Mul:
		return "MPI_PROD"
	case algebra.Max:
		return "MPI_MAX"
	case algebra.Min:
		return "MPI_MIN"
	}
	return op.Name
}
