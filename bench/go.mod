module vexdb/bench

go 1.24

require vexdb v0.0.0

replace vexdb => ../
