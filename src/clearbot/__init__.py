"""Deterministic desk-scale simulator of a vision-guided obstacle-removal

pick pipeline: synthetic top-down RGB-D sensing, mask geometry, camera-to-
arm calibration, reachability gating, and a scripted pick sequence, wired
together by a replayable message bus."""
