// Package noisevet assembles the production configuration of the
// analysis suite: which analyzers run, over which packages, with which
// allowlists. cmd/noisevet and the tests both consume this registry so
// CI and local runs can never drift apart.
package noisevet

import (
	"fmt"
	"sort"
	"strings"

	"osnoise/internal/analysis"
	"osnoise/internal/analysis/atomicfield"
	"osnoise/internal/analysis/chanlive"
	"osnoise/internal/analysis/ctxflow"
	"osnoise/internal/analysis/determinism"
	"osnoise/internal/analysis/doccomment"
	"osnoise/internal/analysis/eventpair"
	"osnoise/internal/analysis/exhaustive"
	"osnoise/internal/analysis/goroleak"
	"osnoise/internal/analysis/hotpath"
	"osnoise/internal/analysis/lockbalance"
	"osnoise/internal/analysis/lockorder"
	"osnoise/internal/analysis/locksets"
	"osnoise/internal/analysis/timeunits"
	"osnoise/internal/analysis/writecheck"
)

// DeterminismConfig scopes the determinism analyzer to the simulation
// core. internal/ftq is included because its simulated FTQ must be
// deterministic, but native.go — the on-host FTQ runner whose whole
// point is reading the machine's real clock — is file-exempt, and cmd/
// binaries may talk wall-clock time to the user.
var DeterminismConfig = determinism.Config{
	Packages: []string{
		"osnoise/internal/sim",
		"osnoise/internal/kernel",
		"osnoise/internal/workload",
		"osnoise/internal/cluster",
		"osnoise/internal/ftq",
	},
	ExemptPackages: []string{"osnoise/cmd"},
	ExemptFiles:    []string{"internal/ftq/native.go"},
}

// EnumTypes are the dispatch enums every switch must handle totally.
var EnumTypes = []string{
	"osnoise/internal/trace.ID",
	"osnoise/internal/trace.ProcKind",
	"osnoise/internal/noise.Key",
	"osnoise/internal/noise.Category",
	"osnoise/internal/kernel.TaskKind",
	"osnoise/internal/kernel.TaskState",
	"osnoise/internal/inject.Kind",
	"osnoise/internal/workload.Phase",
}

// TimeUnitsConfig targets the virtual-time type. sim.Duration is an
// alias of sim.Time, so one entry covers both spellings. The named
// conversion helpers are the two places allowed to mix units: String
// renders against the unit ladder, and Scale is the blessed
// duration×count multiplier everything else routes through.
var TimeUnitsConfig = timeunits.Config{
	Types: []string{"osnoise/internal/sim.Time"},
	ExemptFuncs: []string{
		"osnoise/internal/sim.Time.String",
		"osnoise/internal/sim.Scale",
	},
}

// EventPairConfig scopes the eventpair analyzer to the packages that
// emit span tracepoints. The pairs mirror trace.ID.ExitFor: any
// emission of an entry identifier must be closed by its exit on every
// non-panicking path (or handed off together with it, as CPU.push
// does).
var EventPairConfig = eventpair.Config{
	Packages: []string{
		"osnoise/internal/kernel",
		"osnoise/internal/sim",
	},
	IDType: "osnoise/internal/trace.ID",
	Pairs: map[string]string{
		"EvIRQEntry":     "EvIRQExit",
		"EvSoftIRQEntry": "EvSoftIRQExit",
		"EvTaskletEntry": "EvTaskletExit",
		"EvTrapEntry":    "EvTrapExit",
		"EvSyscallEntry": "EvSyscallExit",
		"EvSchedEntry":   "EvSchedExit",
	},
}

// DocCommentConfig scopes the doc-lint to the packages whose godoc is
// the reference documentation for the paper reproduction: the trace
// format, the analyzer, the simulation clock, the statistics kit, and
// the cluster model. Other packages document themselves at whatever
// density their maintainers like; these five fail CI when an exported
// identifier lacks a doc comment.
var DocCommentConfig = doccomment.Config{
	Packages: []string{
		"osnoise/internal/trace",
		"osnoise/internal/noise",
		"osnoise/internal/sim",
		"osnoise/internal/stats",
		"osnoise/internal/cluster",
		"osnoise/internal/daemon",
	},
}

// GoroleakConfig scopes the goroutine-leak analyzer to the packages
// bound by the resilience contract (docs/ARCHITECTURE.md §5): their
// parallel entry points promise to leak zero goroutines under
// cancellation, so every worker they spawn must be joined on all paths
// or bounded by a done/cancel receive.
var GoroleakConfig = goroleak.Config{
	Packages: []string{
		"osnoise/internal/noise",
		"osnoise/internal/trace",
		"osnoise/internal/cluster",
		"osnoise/internal/daemon",
	},
}

// LockBalanceConfig applies lock balancing everywhere: a mutex leaked
// on any path is a bug no matter which package holds it.
var LockBalanceConfig = lockbalance.Config{}

// WriteCheckConfig applies write-path Close checking everywhere the
// suite runs; exporters live in cmd/ but helpers could move.
var WriteCheckConfig = writecheck.Config{}

// CtxFlowConfig names the cancellable entry points (the functions
// docs/ARCHITECTURE.md §5 promises are prompt under cancellation):
// every loop-bearing function they reach that holds a context must
// observe it. Roots are node names in callgraph.FuncName form; a name
// that does not resolve is skipped, so a rename shows up as the
// self-validation test failing, not a silently narrower analysis.
var CtxFlowConfig = ctxflow.Config{
	Roots: []string{
		"osnoise/internal/noise.AnalyzeParallel",
		"osnoise/internal/noise.AnalyzeStream",
		"osnoise/internal/noise.SummarizeStream",
		"osnoise/internal/noise.AnalyzeRaw",
		"osnoise/internal/trace.ReadParallel",
		"osnoise/internal/cluster.Run",
	},
}

// ChanLiveConfig scopes channel-lifecycle checking to the packages
// whose channels carry measurement data or shutdown signals: the
// analyzer pipeline, the trace reader, and the cluster/MPI
// simulation. Channels made elsewhere (tests, cmd helpers) follow
// whatever local conventions suit them.
var ChanLiveConfig = chanlive.Config{
	Packages: []string{
		"osnoise/internal/noise",
		"osnoise/internal/trace",
		"osnoise/internal/cluster",
		"osnoise/internal/mpi",
		"osnoise/internal/daemon",
	},
}

// LockOrderConfig applies the module-wide lock-acquisition-order
// check everywhere: a deadlock cycle is a bug no matter which
// packages its edges span. Hierarchies are declared in source with
// //noisevet:lockrank comments on the mutex declarations.
var LockOrderConfig = lockorder.Config{}

// LocksetsConfig applies the static race check everywhere goroutines
// are spawned; its shared-location rules (package vars and captured
// locals only) keep it precise without per-package scoping.
var LocksetsConfig = locksets.Config{}

// SuiteOptions selects cross-cutting suite behaviors the CLI exposes
// as flags.
type SuiteOptions struct {
	// StaleIgnore makes the suite report suppression directives that
	// suppress nothing: //noisevet:ignore comments matching no finding
	// (via the checker) and //noisevet:coldpath barriers no hot path
	// reaches (via the hotpath analyzer).
	StaleIgnore bool
}

// Suite returns the production analyzers in reporting order,
// configured per opts. The module-wide analyzers (hotpath, ctxflow,
// lockorder, chanlive, locksets) run last: they share one cached
// repo-wide call graph — and the three concurrency analyzers one
// lockset substrate — built after every package has been
// type-checked.
func Suite(opts SuiteOptions) []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.New(DeterminismConfig),
		exhaustive.New(EnumTypes),
		atomicfield.New(),
		timeunits.New(TimeUnitsConfig),
		eventpair.New(EventPairConfig),
		doccomment.New(DocCommentConfig),
		lockbalance.New(LockBalanceConfig),
		goroleak.New(GoroleakConfig),
		writecheck.New(WriteCheckConfig),
		hotpath.New(hotpath.Config{StaleColdpath: opts.StaleIgnore}),
		ctxflow.New(CtxFlowConfig),
		lockorder.New(LockOrderConfig),
		chanlive.New(ChanLiveConfig),
		locksets.New(LocksetsConfig),
	}
}

// Analyzers returns the default production suite.
func Analyzers() []*analysis.Analyzer {
	return Suite(SuiteOptions{})
}

// Select filters analyzers to the comma-separated names in only (the
// -only flag). An empty selector returns the list unchanged. Unknown
// names produce an error whose message tabulates every valid name, so
// a typo on the command line is self-correcting.
func Select(analyzers []*analysis.Analyzer, only string) ([]*analysis.Analyzer, error) {
	if strings.TrimSpace(only) == "" {
		return analyzers, nil
	}
	keep := make(map[string]bool)
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if name != "" {
			keep[name] = true
		}
	}
	var filtered []*analysis.Analyzer
	for _, a := range analyzers {
		if keep[a.Name] {
			filtered = append(filtered, a)
			delete(keep, a.Name)
		}
	}
	if len(keep) > 0 {
		unknown := make([]string, 0, len(keep))
		for name := range keep {
			unknown = append(unknown, name)
		}
		sort.Strings(unknown)
		var table strings.Builder
		for _, a := range analyzers {
			fmt.Fprintf(&table, "  %-12s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
		return nil, fmt.Errorf("unknown analyzer(s) in -only: %s\nvalid analyzers:\n%s",
			strings.Join(unknown, ", "), strings.TrimRight(table.String(), "\n"))
	}
	if len(filtered) == 0 {
		return nil, fmt.Errorf("-only %q selects no analyzers", only)
	}
	return filtered, nil
}
