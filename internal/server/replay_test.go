package server

import (
	"fmt"
	"io"

	"github.com/xheal/xheal/internal/adversary"
	"github.com/xheal/xheal/internal/core"
	"github.com/xheal/xheal/internal/graph"
	"github.com/xheal/xheal/internal/trace"
)

// replayLog loads an event log (or recorded trace) and replays it through a
// fresh sequential reference state under the given κ and seed, returning
// the replayed final graph. A serving run is faithful iff this equals the
// server's final graph — the tests' oracle for "the log is the run".
func replayLog(r io.Reader, kappa int, seed int64) (*graph.Graph, error) {
	tr, err := trace.Load(r)
	if err != nil {
		return nil, err
	}
	if tr.BaseEvents > 0 {
		// An anchored segment holds only a tail; replaying it from the
		// genesis header would silently skip the prefix.
		return nil, fmt.Errorf("server: log segment is anchored at event %d; recover via checkpoint + tail instead", tr.BaseEvents)
	}
	st, err := core.NewState(core.Config{Kappa: kappa, Seed: seed}, tr.Initial())
	if err != nil {
		return nil, err
	}
	adv, err := tr.Adversary()
	if err != nil {
		return nil, err
	}
	for i := 0; ; i++ {
		ev, ok := adv.Next(st.Graph())
		if !ok {
			break
		}
		switch ev.Kind {
		case adversary.Insert:
			err = st.InsertNode(ev.Node, ev.Neighbors)
		case adversary.Delete:
			err = st.DeleteNode(ev.Node)
		}
		if err != nil {
			return nil, fmt.Errorf("replay event %d: %w", i, err)
		}
	}
	return st.Graph(), nil
}
