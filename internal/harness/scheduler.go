package harness

// Scheduler abstracts how an expanded job list gets executed. Run,
// RunJobs and RunResume hand their jobs to Config.Scheduler (the local
// in-process worker pool when unset), invoke visit for every record in
// job order as results complete, and receive all records back indexed
// like the job list — so the local pool and a remote lease scheduler
// (LeaseScheduler, backed by `bpbench serve` workers) are
// interchangeable without the sink, aggregate or resume logic knowing
// which one ran the cells.
type Scheduler interface {
	// Schedule executes jobs under cfg, calling visit once per job in
	// job order (a reorder buffer decouples completion order from visit
	// order, so streaming starts with the first finished cell) and
	// returning every record, results[i] belonging to jobs[i]. A job
	// that fails yields a Record with Err set; Schedule never aborts
	// the batch.
	Schedule(jobs []Job, cfg Config, visit func(Record)) []Record
}

// localScheduler is the default Scheduler: the in-process worker pool
// of pooled predictors.
type localScheduler struct{}

func (localScheduler) Schedule(jobs []Job, cfg Config, visit func(Record)) []Record {
	return executeJobs(jobs, cfg, newRunMetrics(cfg.Metrics), nil, visit)
}

// scheduler resolves Config.Scheduler, defaulting to the local pool.
func (c Config) scheduler() Scheduler {
	if c.Scheduler != nil {
		return c.Scheduler
	}
	return localScheduler{}
}
