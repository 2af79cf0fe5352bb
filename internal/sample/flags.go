package sample

import "flag"

// RegisterFlags declares the sampling flags on fs: -sample, with the
// caller's usage, and the schedule knobs -sample-period, -sample-fwarm,
// -sample-warmup, -sample-window and -sample-random-offset. The
// returned function, called once fs is parsed, yields the schedule
// they select: the zero (full-detail) config unless -sample is set,
// with seed placing the random offsets.
func RegisterFlags(fs *flag.FlagSet, usage string) func(seed int64) Config {
	d := Default()
	on := fs.Bool("sample", false, usage)
	period := fs.Int64("sample-period", d.PeriodEvents, "events per sampling period")
	fwarm := fs.Int64("sample-fwarm", d.FunctionalWarmEvents, "functionally warmed events before each window")
	warm := fs.Int64("sample-warmup", d.DetailWarmEvents, "detailed warm-up events before each window")
	window := fs.Int64("sample-window", d.WindowEvents, "measured events per window")
	random := fs.Bool("sample-random-offset", false, "place each period's window at a seeded random offset instead of a fixed one")
	return func(seed int64) Config {
		if !*on {
			return Config{}
		}
		return Config{
			PeriodEvents:         *period,
			FunctionalWarmEvents: *fwarm,
			DetailWarmEvents:     *warm,
			WindowEvents:         *window,
			RandomOffset:         *random,
			Seed:                 uint64(seed),
		}
	}
}
