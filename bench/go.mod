module hybridsched/bench

go 1.22

require hybridsched v0.0.0

replace hybridsched => ../
