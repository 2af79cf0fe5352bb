package server

// DriveStmt is one statement of the drive mix.
type DriveStmt struct {
	Kind string // short name: point, range100, count, groupby, small20
	SQL  string
}

// DriveMix is the fixed statement mix cgpserve -drive cycles through: a
// point lookup and a 100-row range through big1's clustered unique2
// index, a COUNT with a 10% predicate and a GROUP BY (both full scans
// of big1), and a 20-row range of small — roughly the Wisconsin
// selection mix. The serving tests and benchmarks send the same
// statements, so their numbers line up with the drive's.
var DriveMix = []DriveStmt{
	{"point", "SELECT unique1, unique2 FROM big1 WHERE unique2 = 42"},
	{"range100", "SELECT unique1 FROM big1 WHERE unique2 BETWEEN 100 AND 199"},
	{"count", "SELECT COUNT(*) AS n FROM big1 WHERE ten = 3"},
	{"groupby", "SELECT two, COUNT(*) AS n FROM big1 GROUP BY two"},
	{"small20", "SELECT unique1 FROM small WHERE unique2 < 20"},
}
