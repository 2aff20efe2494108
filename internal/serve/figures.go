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

// figures lists the batch experiments GET /v1/figures/{n} serves; the
// names mirror dx100sim -fig.
var figures = map[string]bool{
	"8a": true, "8bc": true, "9": true, "10": true, "11": true,
	"12": true, "13": true, "14": true, "ablation": true, "energy": true,
}

// figSpec identifies one whole-figure batch experiment. Its JSON form
// feeds the content hash, so it carries only fields that change the
// result — Workers is execution policy and deliberately excluded.
type figSpec struct {
	Figure        string   `json:"figure"`
	Scale         int      `json:"scale"`
	Workloads     []string `json:"workloads,omitempty"`
	NoFastForward bool     `json:"no_fast_forward,omitempty"`
	Workers       int      `json:"-"`
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

// parseFigSpec reads /v1/figures/{n}?scale=&workloads=&noff=&workers=.
func parseFigSpec(r *http.Request) (figSpec, error) {
	f := figSpec{Figure: r.PathValue("n")}
	if !figures[f.Figure] {
		return f, fmt.Errorf("unknown figure %q (have 8a, 8bc, 9-14, ablation, energy)", f.Figure)
	}
	q := r.URL.Query()
	var err error
	if f.Scale, err = parsePositiveInt(q.Get("scale"), 1); err != nil {
		return f, fmt.Errorf("scale: %w", err)
	}
	if f.Workers, err = parsePositiveInt(q.Get("workers"), 0); err != nil {
		return f, fmt.Errorf("workers: %w", err)
	}
	f.NoFastForward = parseBoolParam(q.Get("noff"))
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
// the request's worker count, stepping mode and cancellation context
// apply to this job only — no package-global knobs.
func (s *Server) executeFigure(ctx context.Context, j *job) (json.RawMessage, error) {
	f := j.fig
	workers := f.Workers
	if workers == 0 {
		workers = s.cfg.FigWorkers
	}
	runner := exp.Runner{
		Workers:       workers,
		NoFastForward: f.NoFastForward,
		Context:       ctx,
		OnRun: func(done, total int) {
			s.simRuns.Add(1)
			if b, err := json.Marshal(figProgress{RunsDone: done, RunsTotal: total}); err == nil {
				j.publishProgress(b)
			}
		},
	}
	var series []*exp.Series
	var err error
	switch f.Figure {
	case "8a":
		var one *exp.Series
		one, err = runner.Fig8aAllHit(f.Scale)
		series = append(series, one)
	case "8bc":
		var one *exp.Series
		one, err = runner.Fig8bcAllMiss()
		series = append(series, one)
	case "9", "10", "11", "12", "energy":
		var rows []exp.MainRow
		rows, err = runner.MainEvaluation(f.Scale, f.Workloads, f.Figure == "12")
		if err == nil {
			switch f.Figure {
			case "9":
				series = append(series, exp.Fig9(rows))
			case "10":
				series = append(series, exp.Fig10(rows))
			case "11":
				series = append(series, exp.Fig11(rows))
			case "12":
				series = append(series, exp.Fig12(rows))
			case "energy":
				series = append(series, exp.EnergyTable(rows))
			}
		}
	case "13":
		var one *exp.Series
		one, err = runner.Fig13TileSize(f.Scale, f.Workloads)
		series = append(series, one)
	case "14":
		var one *exp.Series
		one, err = runner.Fig14Scalability(f.Scale, f.Workloads)
		series = append(series, one)
	case "ablation":
		var one *exp.Series
		one, err = runner.AblationReorder(f.Scale, f.Workloads)
		series = append(series, one)
	default:
		err = fmt.Errorf("serve: unhandled figure %q", f.Figure)
	}
	if err != nil {
		return nil, err
	}
	var text strings.Builder
	for _, sr := range series {
		text.WriteString(sr.String())
	}
	return json.MarshalIndent(figureResult{Figure: f.Figure, Series: series, Text: text.String()}, "", "  ")
}
