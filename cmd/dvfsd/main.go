// Command dvfsd is the model-serving daemon: it owns a registry of
// trained DVFS controllers (the §4.2 "distribute the trained model"
// artifacts) and answers prediction queries over HTTP — the online
// half of an offline-train / online-query service.
//
// Usage:
//
//	dvfsd -addr 127.0.0.1:8090 -data ./models [-platform a7]
//	      [-workers 2] [-queue 16] [-max-inflight 256] [-timeout 30s]
//
// Endpoints: POST /v1/models/{name} (train, or ?mode=upload),
// GET /v1/models, POST /v1/predict, POST /v1/predict/batch,
// GET /v1/events (live decision stream as Server-Sent Events,
// filterable with ?workload=&since=&last=; dvfstrace -follow tails
// it), POST /v1/fleet/ingest (fleet decision traces, JSONL or binary;
// feeds per-device health scoring and keyed fleet SLO burn), GET
// /v1/fleet (the fleet snapshot as JSON), GET /v1/query (range queries
// over the embedded telemetry history; see the -tsdb-* flags), GET
// /v1/alerts (live alert state and the incident history; see -alerts,
// -rules, -incident-log, -alert-webhook, -energy-budget), GET
// /healthz, GET /metrics
// (Prometheus text format, including the fleet gauges), and — unless
// -debug=false — GET /debug/decisions (recent decision events as
// JSON, same filter params), GET /debug/slo (per-workload
// deadline-miss burn rates), GET /debug/dash (self-contained
// auto-refreshing HTML operations dashboard), GET /debug/fleet (the
// fleet health dashboard), GET /debug/alerts (the incident timeline)
// plus the net/http/pprof handlers under /debug/pprof/.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener drains
// in-flight requests, then the registry drains in-flight builds.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/alert"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/serve"
	"repro/internal/tsdb"
	"repro/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8090", "listen address")
	data := flag.String("data", "", "model persistence directory (empty = in-memory only)")
	platName := flag.String("platform", "a7", "platform model: a7, x86, biglittle")
	workers := flag.Int("workers", 2, "concurrent model builds")
	queue := flag.Int("queue", 16, "queued model builds before 503")
	maxInflight := flag.Int("max-inflight", 256, "concurrent requests before shedding with 429")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout")
	seed := flag.Int64("seed", 1, "seed for switch-table measurement")
	preload := flag.String("preload", "", "comma-separated workloads to train at startup")
	tracePath := flag.String("trace", "", "append decision events as JSONL to this path (dvfstrace reads it)")
	debug := flag.Bool("debug", true, "serve /debug/decisions and /debug/pprof/")
	sloTarget := flag.Float64("slo-target", 0.01, "deadline-miss SLO target per workload (0 disables burn-rate tracking)")
	streamQueue := flag.Int("stream-queue", 256, "queued events per /v1/events subscriber before dropping (0 disables streaming)")
	spanEvery := flag.Int("span-every", 1, "capture a per-phase span ledger on every Nth decision (1 = all)")
	fleetOn := flag.Bool("fleet", true, "serve fleet observability: POST /v1/fleet/ingest, GET /v1/fleet, and /debug/fleet")
	fleetTopK := flag.Int("fleet-topk", 10, "worst devices surfaced by the fleet tracker")
	fleetMaxIngest := flag.Int64("fleet-max-ingest", 0, "byte limit for /v1/fleet/ingest bodies (0 = 256 MiB)")
	tsdbScrape := flag.Duration("tsdb-scrape", 5*time.Second, "telemetry history scrape interval (0 disables the embedded time-series store)")
	tsdbDir := flag.String("tsdb-dir", "", "telemetry history directory (empty = in-memory only; dvfstsdb inspects it offline)")
	tsdbRetention := flag.Duration("tsdb-retention", 6*time.Hour, "telemetry history retention (negative = keep forever)")
	tsdbBlock := flag.Duration("tsdb-block", 10*time.Minute, "telemetry history block duration (crash-loss bound per series)")
	alertsOn := flag.Bool("alerts", true, "evaluate alert rules on each telemetry scrape tick (needs -tsdb-scrape > 0)")
	rulesPath := flag.String("rules", "", "alert rules file (JSON), merged with the built-in rules")
	incidentLog := flag.String("incident-log", "", "append-only incident journal, replayed on restart so firing alerts survive a crash")
	alertWebhook := flag.String("alert-webhook", "", "POST firing/resolved alert transitions to this URL (retried with backoff)")
	energyBudget := flag.Float64("energy-budget", 0, "average-power budget in watts for energy-burn tracking (0 disables)")
	logFlags := obs.RegisterLogFlags(flag.CommandLine)
	flag.Parse()

	log, err := logFlags.Logger(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvfsd:", err)
		flag.Usage()
		os.Exit(2)
	}
	if *sloTarget < 0 || *sloTarget >= 1 {
		fmt.Fprintln(os.Stderr, "dvfsd: -slo-target must be in [0, 1)")
		flag.Usage()
		os.Exit(2)
	}
	if *spanEvery < 0 {
		fmt.Fprintln(os.Stderr, "dvfsd: -span-every must be >= 0")
		flag.Usage()
		os.Exit(2)
	}
	if *fleetTopK < 0 || *fleetMaxIngest < 0 {
		fmt.Fprintln(os.Stderr, "dvfsd: -fleet-topk and -fleet-max-ingest must be non-negative")
		flag.Usage()
		os.Exit(2)
	}
	if *tsdbScrape < 0 || *tsdbBlock < 0 {
		fmt.Fprintln(os.Stderr, "dvfsd: -tsdb-scrape and -tsdb-block must be non-negative")
		flag.Usage()
		os.Exit(2)
	}
	if *energyBudget < 0 {
		fmt.Fprintln(os.Stderr, "dvfsd: -energy-budget must be non-negative")
		flag.Usage()
		os.Exit(2)
	}
	if (*rulesPath != "" || *incidentLog != "" || *alertWebhook != "") && (!*alertsOn || *tsdbScrape == 0) {
		fmt.Fprintln(os.Stderr, "dvfsd: -rules, -incident-log, and -alert-webhook need -alerts and -tsdb-scrape > 0 (rules evaluate over the telemetry store)")
		flag.Usage()
		os.Exit(2)
	}
	fleetCfg := fleetSettings{on: *fleetOn, topK: *fleetTopK, maxIngest: *fleetMaxIngest}
	tsdbCfg := tsdbSettings{scrape: *tsdbScrape, dir: *tsdbDir, retention: *tsdbRetention, block: *tsdbBlock}
	alertCfg := alertSettings{on: *alertsOn, rules: *rulesPath, incidentLog: *incidentLog, webhook: *alertWebhook, budgetW: *energyBudget}
	if err := run(*addr, *data, *platName, *workers, *queue, *maxInflight, *timeout, *seed, *preload, *tracePath, *debug, *sloTarget, *streamQueue, *spanEvery, fleetCfg, tsdbCfg, alertCfg, log); err != nil {
		fmt.Fprintln(os.Stderr, "dvfsd:", err)
		if errors.Is(err, errUsage) {
			flag.Usage()
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// errUsage marks validation errors that warrant the usage text.
var errUsage = errors.New("invalid usage")

// fleetSettings groups the fleet-observability flags.
type fleetSettings struct {
	on        bool
	topK      int
	maxIngest int64
}

// tsdbSettings groups the telemetry-history flags.
type tsdbSettings struct {
	scrape    time.Duration // 0 disables the store entirely
	dir       string        // "" = memory-only
	retention time.Duration
	block     time.Duration
}

// alertSettings groups the alerting and energy-metering flags.
type alertSettings struct {
	on          bool
	rules       string  // "" = built-ins only
	incidentLog string  // "" = no crash-safe journal
	webhook     string  // "" = slog only
	budgetW     float64 // 0 = no burn tracking
}

func run(addr, data, platName string, workers, queue, maxInflight int, timeout time.Duration, seed int64, preload, tracePath string, debug bool, sloTarget float64, streamQueue, spanEvery int, fleetCfg fleetSettings, tsdbCfg tsdbSettings, alertCfg alertSettings, log *slog.Logger) error {
	// Validate everything up front: a daemon must not come up half
	// configured.
	plat, err := platform.ByName(platName)
	if err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	var preloads []string
	if preload != "" {
		for _, name := range strings.Split(preload, ",") {
			name = strings.TrimSpace(name)
			if _, err := workload.ByName(name); err != nil {
				return fmt.Errorf("%w: -preload: %v", errUsage, err)
			}
			preloads = append(preloads, name)
		}
	}

	metrics := serve.NewMetrics()

	// Decision tracing: the ring always backs /debug/decisions; a
	// JSONL sink is attached when -trace names a file. The drift
	// monitor watches completed events (residuals arrive only from
	// co-located controllers and fleet ingest; served predictions run
	// client-side); the server exports its under-prediction rates for
	// the model_stale rule.
	var sinks []obs.Sink
	if tracePath != "" {
		f, err := os.OpenFile(tracePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("opening -trace file: %w", err)
		}
		defer f.Close()
		sinks = append(sinks, obs.NewJSONLSink(f))
	}
	// Live streaming: the broadcaster is both a tracer sink (every
	// emitted decision fans out) and the server's /v1/events source
	// (each subscriber gets a bounded queue; slow readers drop rather
	// than block the decision path).
	var stream *obs.Broadcaster
	if streamQueue > 0 {
		stream = obs.NewBroadcaster(obs.BroadcasterOptions{
			QueueSize: streamQueue,
			Dropped: metrics.Registry().Counter("obs_stream_dropped_total",
				"Decision events dropped because a /v1/events subscriber fell behind."),
		})
		sinks = append(sinks, stream)
	}
	// Online energy metering: every traced decision accrues modeled
	// joules per (workload, device) stream — the live counterpart of
	// dvfsreplay's offline reconstruction. The meter is a tracer sink
	// for this daemon's own decisions; fleet-ingested events reach it
	// through the server.
	energy := alert.NewEnergyMeter(alert.EnergyConfig{
		Platform: plat,
		BudgetW:  alertCfg.budgetW,
	})
	sinks = append(sinks, energy)
	// SLO burn-rate tracking: every completed decision event feeds a
	// per-workload deadline-miss SLO with fast/slow burn-rate windows;
	// the server exports the burn rates for the slo_burn rule and
	// serves them at GET /debug/slo.
	var slo *obs.SLOTracker
	if sloTarget > 0 {
		slo = obs.NewSLOTracker(obs.SLOConfig{Target: sloTarget})
	}
	drift := obs.NewDriftMonitor()
	tracer := obs.NewTracer(obs.TracerOptions{Sinks: sinks, Drift: drift, SLO: slo})
	defer func() {
		if err := tracer.Close(); err != nil {
			log.Error("closing decision trace", "err", err)
		}
	}()

	reg, err := serve.NewRegistry(serve.RegistryOptions{
		Dir:        data,
		Plat:       plat,
		Workers:    workers,
		QueueDepth: queue,
		Seed:       seed,
		Log:        log,
		Observe: func(name string, sec float64, err error) {
			metrics.ObserveBuild(sec, err)
		},
	})
	if err != nil {
		return err
	}
	// Fleet observability: ingested device traces are a separate
	// population from this daemon's own serving, so they get their own
	// tracker and their own keyed SLO (fleet / platform:* / workload:*)
	// rather than feeding the per-workload serving SLO above.
	var fleetTracker *obs.FleetTracker
	var fleetSLO *obs.SLOTracker
	if fleetCfg.on {
		fleetTracker = obs.NewFleetTracker(obs.FleetConfig{TopK: fleetCfg.topK})
		if sloTarget > 0 {
			fleetSLO = obs.NewSLOTracker(obs.SLOConfig{Target: sloTarget, MaxKeys: 64})
		}
	}

	// Telemetry history: an embedded Gorilla-compressed store scraped
	// from the shared registry. Opened before the server so GET
	// /v1/query and the dashboard history windows can reach it; the
	// scrape loop starts after the server exists because each tick also
	// refreshes the sync-on-read gauges.
	var store *tsdb.Store
	if tsdbCfg.scrape > 0 {
		store, err = tsdb.Open(tsdb.Options{
			Dir:       tsdbCfg.dir,
			BlockDur:  tsdbCfg.block,
			Retention: tsdbCfg.retention,
		})
		if err != nil {
			reg.Close()
			return fmt.Errorf("opening telemetry store: %w", err)
		}
		defer func() {
			if err := store.Close(); err != nil {
				log.Error("closing telemetry store", "err", err)
			}
		}()
	}

	// Declarative alerting: rules (built-ins plus an optional -rules
	// file) evaluate range queries over the telemetry store at the end
	// of every scrape tick, driving a pending→firing→resolved state
	// machine with notifications and a crash-safe incident journal.
	var engine *alert.Engine
	if store != nil && alertCfg.on {
		rules := alert.BuiltinRules(alert.BuiltinOptions{
			Scrape:       tsdbCfg.scrape,
			EnergyBudget: alertCfg.budgetW > 0,
		})
		if alertCfg.rules != "" {
			extra, err := alert.LoadRules(alertCfg.rules)
			if err != nil {
				reg.Close()
				return fmt.Errorf("%w: -rules: %v", errUsage, err)
			}
			rules = append(rules, extra...)
		}
		notifiers := []alert.Notifier{&alert.SlogNotifier{Log: log}}
		if alertCfg.webhook != "" {
			notifiers = append(notifiers, alert.NewWebhookNotifier(alertCfg.webhook, alert.WebhookOptions{Log: log}))
		}
		engine, err = alert.New(alert.Config{
			Querier:     store,
			Rules:       rules,
			Notifiers:   notifiers,
			IncidentLog: alertCfg.incidentLog,
			Log:         log,
		})
		if err != nil {
			reg.Close()
			return fmt.Errorf("alert engine: %w", err)
		}
		defer func() {
			if err := engine.Close(); err != nil {
				log.Error("closing alert engine", "err", err)
			}
		}()
		log.Info("alerting enabled", "rules", len(rules),
			"incident_log", alertCfg.incidentLog, "webhook", alertCfg.webhook != "")
	}

	srv := serve.NewServer(reg, serve.ServerOptions{
		Log:            log,
		Metrics:        metrics,
		RequestTimeout: timeout,
		MaxInflight:    maxInflight,
		Tracer:         tracer,
		EnableDebug:    debug,
		SLO:            slo,
		Stream:         stream,
		SpanEvery:      spanEvery,
		Fleet:          fleetTracker,
		FleetSLO:       fleetSLO,
		MaxIngestBytes: fleetCfg.maxIngest,
		History:        store,
		Alerts:         engine,
		Energy:         energy,
		Drift:          drift,
	})
	if store != nil {
		runtimeC := obs.NewRuntimeCollector(metrics.Registry())
		scraper := tsdb.NewScraper(store, metrics.Registry(), tsdbCfg.scrape, func() {
			runtimeC.Collect()
			srv.SyncGauges()
		})
		if engine != nil {
			// Rules evaluate after the tick's samples land, so each
			// evaluation sees the state it just scraped.
			scraper.After = engine.Eval
		}
		scrapeCtx, scrapeStop := context.WithCancel(context.Background())
		scrapeDone := make(chan struct{})
		go func() {
			scraper.Run(scrapeCtx)
			close(scrapeDone)
		}()
		// Stop the scrape loop before the deferred store.Close seals the
		// heads, so no tick lands on a closed disk log.
		defer func() {
			scrapeStop()
			<-scrapeDone
		}()
		log.Info("telemetry history enabled", "interval", tsdbCfg.scrape.String(),
			"dir", tsdbCfg.dir, "retention", tsdbCfg.retention.String())
	}
	for _, name := range preloads {
		if _, _, err := reg.Train(name, serve.TrainConfig{Seed: seed}); err != nil {
			return fmt.Errorf("preloading %s: %w", name, err)
		}
		log.Info("preload queued", "name", name)
	}

	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
	}
	// Listen before logging so -addr :0 reports the resolved port —
	// tests (and scripts) parse it from the startup line.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		reg.Close()
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Info("dvfsd listening", "addr", ln.Addr().String(), "platform", plat.Name, "data", data)
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	select {
	case err := <-errCh:
		reg.Close()
		return err
	case <-ctx.Done():
	}
	log.Info("shutting down: draining requests and builds")
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		log.Error("listener shutdown", "err", err)
	}
	reg.Close()
	log.Info("dvfsd stopped")
	return nil
}
