package trace

import "sort"

// regroupByPID re-derives the event-log's cases at process granularity:
// events are grouped by (cid, host, pid) instead of (cid, host, rid).
//
// Section IV of the paper defines a case as the events of one trace file
// (one rid) and notes: "we do not distinguish between different SMT or
// OpenMP processes within the same MPI process. However, one could do so
// by re-defining case as a group of events belonging to the same cid,
// host, and pid (instead of rid)." This function implements that
// redefinition.
//
// The PID becomes the RID of the new case identities (the trace-file
// naming convention has no separate pid slot); the events keep their
// PID attribute. If two different rids on one host share a pid
// (possible only across unrelated recordings), their events merge into
// one case, ordered by start time.
func (l *EventLog) regroupByPID() *EventLog {
	groups := make(map[CaseID][]Event)
	for _, c := range l.cases {
		for _, e := range c.Events {
			id := CaseID{CID: c.ID.CID, Host: c.ID.Host, RID: e.PID}
			groups[id] = append(groups[id], e)
		}
	}
	ids := make([]CaseID, 0, len(groups))
	for id := range groups {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	out := &EventLog{byID: make(map[CaseID]*Case, len(ids))}
	for _, id := range ids {
		c := NewCase(id, groups[id])
		out.cases = append(out.cases, c)
		out.byID[id] = c
	}
	return out
}
