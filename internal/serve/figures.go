package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"dx100/internal/exp"
	"dx100/internal/workloads"
)

// figSpec identifies one whole-figure batch experiment (one of
// exp.FigureNames). Its JSON form feeds the content hash, so it carries
// only fields that change the result.
type figSpec struct {
	Figure    string   `json:"figure"`
	Scale     int      `json:"scale"`
	Workloads []string `json:"workloads,omitempty"`
}

// hash returns the spec's content address. Figure specs and run specs
// marshal to structurally different JSON ("figure" vs "workload"
// leading field), so the two id spaces cannot collide.
func (f figSpec) hash() (string, error) {
	b, err := json.Marshal(f)
	if err != nil {
		return "", fmt.Errorf("serve: canonicalize figure spec: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// parseFigSpec reads /v1/figures/{n}?scale=&workloads=.
func parseFigSpec(r *http.Request) (figSpec, error) {
	f := figSpec{Figure: r.PathValue("n")}
	if err := exp.CheckFigure(f.Figure); err != nil {
		return f, err
	}
	q := r.URL.Query()
	var err error
	if f.Scale, err = parsePositiveInt(q.Get("scale"), 1); err != nil {
		return f, fmt.Errorf("scale: %w", err)
	}
	if f.Scale > maxScale {
		return f, fmt.Errorf("scale %d above the limit of %d", f.Scale, maxScale)
	}
	if ws := q.Get("workloads"); ws != "" {
		f.Workloads = strings.Split(ws, ",")
		for _, n := range f.Workloads {
			if _, ok := workloads.Registry[n]; !ok {
				return f, fmt.Errorf("unknown workload %q", n)
			}
		}
	}
	return f, nil
}

// figureResult is the cached payload of a figure job: the rendered
// series plus the ASCII text the CLI would print.
type figureResult struct {
	Figure string        `json:"figure"`
	Series []*exp.Series `json:"series"`
	Text   string        `json:"text"`
}

// figProgress is the progress payload of a figure job.
type figProgress struct {
	RunsDone  int `json:"runs_done"`
	RunsTotal int `json:"runs_total"`
}

// executeFigure runs the whole-figure batch on a per-request Runner:
// the daemon's figure pool width and the job's cancellation context
// apply to this job only — no package-global knobs.
func (s *Server) executeFigure(ctx context.Context, j *job) (json.RawMessage, error) {
	f := j.fig
	runner := exp.Runner{
		Workers: s.cfg.FigWorkers,
		Context: ctx,
		OnRun: func(done, total int) {
			s.simRuns.Add(1)
			if b, err := json.Marshal(figProgress{RunsDone: done, RunsTotal: total}); err == nil {
				j.publishProgress(b)
			}
		},
	}
	series, err := runner.Figure(f.Figure, f.Scale, f.Workloads)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(figureResult{Figure: f.Figure, Series: []*exp.Series{series}, Text: series.String()}, "", "  ")
}
