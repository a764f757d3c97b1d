"""Static SVG rendering of scenarios, expansion trees, and planned paths."""

from __future__ import annotations

from .geometry import body_corners
from .search import PlanResult

SCALE = 20.0  # pixels per meter

_OBSTACLE = "#cc2222"
_TREE = "#9aa7b0"
_PATH = "#1f5fd0"
_TAIL = "#e07b00"
_START = "#228833"
_GOAL = "#8822aa"


def render_svg(scenario, result: PlanResult | None = None) -> str:
    """Deterministic SVG document: obstacles, optional expansion tree,
    the planned path, and the vehicle outline at start and goal. The path
    is drawn from `PlanResult.parts`: the drive solid, the analytic tail
    dashed."""
    ws = scenario.workspace
    width = (ws.x_max - ws.x_min) * SCALE
    height = (ws.y_max - ws.y_min) * SCALE

    def px(x: float) -> float:
        return (x - ws.x_min) * SCALE

    def py(y: float) -> float:
        return (ws.y_max - y) * SCALE

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" '
        'fill="white" stroke="black" stroke-width="1"/>',
    ]

    if result is not None and result.trace:
        segs = []
        for parent_pose, pose, _cell in result.trace:
            if parent_pose is None:
                continue
            segs.append(
                f'<line x1="{px(parent_pose.x):.2f}" y1="{py(parent_pose.y):.2f}" '
                f'x2="{px(pose.x):.2f}" y2="{py(pose.y):.2f}"/>'
            )
        out.append(f'<g stroke="{_TREE}" stroke-width="0.7">')
        out.extend(segs)
        out.append("</g>")

    out.append(f'<g fill="{_OBSTACLE}">')
    for x, y in scenario.obstacles.points:
        out.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="1.5"/>')
    out.append("</g>")

    if result is not None:
        drive, tail = result.parts
        for poses, stroke in (
            (drive, f'stroke="{_PATH}" stroke-width="2"'),
            (tail, f'stroke="{_TAIL}" stroke-width="2" stroke-dasharray="6 3"'),
        ):
            if len(poses) >= 2:
                pts = " ".join(f"{px(p.x):.2f},{py(p.y):.2f}" for p, _ in poses)
                out.append(f'<polyline points="{pts}" fill="none" {stroke}/>')

    for pose, color in ((scenario.start, _START), (scenario.goal, _GOAL)):
        corners = body_corners(pose, scenario.vehicle)
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in corners)
        out.append(
            f'<polygon points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
